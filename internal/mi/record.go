package mi

import (
	"fmt"
	"strconv"

	"easytracker/internal/dbg"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

// MI-side time travel: with recording armed (-et-record, before -exec-run)
// the server records one delta step per stop — MiniGDB recording is at stop
// granularity, not per executed line, since the debugger only surfaces state
// at stops. -exec-step-back and -exec-seek then move a replay cursor over
// the recording; while rewound, -et-inspect serves the reconstructed
// snapshot, and any forward exec command snaps the cursor back to the live
// present (the inferior itself never moved).

// replayVersionBase offsets the synthetic data version reported for rewound
// -et-inspect responses, keeping them distinct from any live DataVersion so
// client-side state caches never conflate a replayed snapshot with a live one.
const replayVersionBase = uint64(1) << 40

// etRecord arms stop-granularity recording. Must run before -exec-run: the
// recording starts with the run's entry stop.
func (s *Server) etRecord(token string, args []string) ([]Record, error) {
	if s.d != nil {
		return nil, fmt.Errorf("-et-record must be armed before -exec-run")
	}
	interval := 0
	if len(args) > 1 {
		return nil, fmt.Errorf("usage: -et-record [INTERVAL]")
	}
	if len(args) == 1 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad checkpoint interval %q", args[0])
		}
		interval = v
	}
	s.recArmed = true
	s.recInterval = interval
	return []Record{doneRec(token)}, nil
}

// startRecording begins a fresh recording for one run; called by -exec-run
// when armed.
func (s *Server) startRecording() {
	s.rec = ttd.NewRecorder(s.prog.SourceFile, s.prog.Source, "minigdb", s.recInterval)
	s.recErr = nil
	s.replay = ttd.Cursor{}
}

// recordStop appends the stop to the recording. Runs before the stdout
// buffer is drained into stream records, so the buffered output is exactly
// this step's delta. A recording failure latches: the run continues, the
// time-travel surface reports the error.
func (s *Server) recordStop(stop dbg.Stop) {
	if s.rec == nil || s.recErr != nil {
		return
	}
	out := s.stdout.String()
	if stop.Reason == dbg.StopExited || stop.Reason == dbg.StopFault {
		if err := s.rec.Finish(stop.ExitCode, out); err != nil {
			s.recErr = err
		}
		return
	}
	st := s.d.State(s.reasonFromStop(stop))
	if err := s.rec.Add(pt.EventStepLine, stop.Line, stop.Function, out, st); err != nil {
		s.recErr = err
	}
}

// needRec guards the time-travel commands.
func (s *Server) needRec() error {
	if err := s.need(); err != nil {
		return err
	}
	if s.rec == nil {
		return fmt.Errorf("no recording (arm with -et-record before -exec-run)")
	}
	if s.recErr != nil {
		return fmt.Errorf("recording failed: %v", s.recErr)
	}
	if s.rec.Len() == 0 {
		return fmt.Errorf("recording is empty")
	}
	return nil
}

func (s *Server) inferiorDone() bool {
	r := s.d.LastStop().Reason
	return r == dbg.StopExited || r == dbg.StopFault
}

// execStepBack rewinds the replay cursor one recorded stop.
func (s *Server) execStepBack(token string) ([]Record, error) {
	if err := s.needRec(); err != nil {
		return nil, err
	}
	s.replay.StepBack(s.rec.Store(), s.inferiorDone())
	return s.replayStopRecords(token, "step-back"), nil
}

// execSeek jumps the replay cursor to an absolute recorded step. Seeking to
// the live head of a still-running inferior returns to live inspection.
func (s *Server) execSeek(token string, args []string) ([]Record, error) {
	if err := s.needRec(); err != nil {
		return nil, err
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: -exec-seek STEP")
	}
	st := s.rec.Store()
	pos, err := strconv.Atoi(args[0])
	if err != nil || s.replay.Seek(st, pos, s.inferiorDone()) != nil {
		return nil, fmt.Errorf("seek target %q out of range [0,%d)", args[0], st.Len())
	}
	return s.replayStopRecords(token, "seek"), nil
}

// etReplayPos reports the replay cursor without moving it.
func (s *Server) etReplayPos(token string) ([]Record, error) {
	if err := s.needRec(); err != nil {
		return nil, err
	}
	mode := "live"
	if !s.replay.AtHead() {
		mode = "replay"
	}
	return []Record{doneRec(token,
		Result{Var: "pos", Val: StringVal(strconv.Itoa(s.replay.Pos(s.rec.Store())))},
		Result{Var: "len", Val: StringVal(strconv.Itoa(s.rec.Len()))},
		Result{Var: "mode", Val: StringVal(mode)},
	)}, nil
}

// replayStopRecords renders a reverse-navigation landing as ^running +
// *stopped, the same synchronous condensation live exec commands use, so MI
// clients drive time travel with their existing stop machinery.
func (s *Server) replayStopRecords(token, reason string) []Record {
	st := s.rec.Store()
	pos := s.replay.Pos(st)
	recs := []Record{{Kind: ResultRecord, Token: token, Class: "running"}}
	stp := Record{Kind: AsyncRecord, Class: "stopped"}
	stp.Results = append(stp.Results,
		Result{Var: "reason", Val: StringVal(reason)},
		Result{Var: "line", Val: StringVal(strconv.Itoa(st.LineAt(pos)))},
		Result{Var: "func", Val: StringVal(st.FuncAt(pos))},
		Result{Var: "depth", Val: StringVal(strconv.Itoa(st.DepthAt(pos)))},
		Result{Var: "pos", Val: StringVal(strconv.Itoa(pos))},
		Result{Var: "len", Val: StringVal(strconv.Itoa(st.Len()))},
	)
	return append(recs, stp)
}

// replayInspect serves -et-inspect from the recording while rewound: the
// reconstructed snapshot plus a synthetic, per-step data version.
func (s *Server) replayInspect(token string) ([]Record, error) {
	pos := s.replay.Pos(s.rec.Store())
	st, err := s.rec.Store().StateAt(pos)
	if err != nil {
		return nil, err
	}
	data, err := st.MarshalJSON()
	if err != nil {
		return nil, err
	}
	version := replayVersionBase + uint64(pos)
	return []Record{doneRec(token,
		Result{Var: "state", Val: StringVal(string(data))},
		Result{Var: "version", Val: StringVal(strconv.FormatUint(version, 10))},
	)}, nil
}
