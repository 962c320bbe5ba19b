package main

import (
	"fmt"
	"strings"

	"easytracker/internal/minic"
	"easytracker/internal/minipy"
	"easytracker/internal/vm"
)

// Uninstrumented reference runs: the expected inferior stdout of every
// program, and the size of the work it does.

// runPy runs a MiniPy program on minipy.Interp with no trace hook and
// returns its stdout and the number of lines it executed.
func runPy(p *program) (string, int64, error) {
	m, err := minipy.Parse(p.Name, p.Src)
	if err != nil {
		return "", 0, err
	}
	in := minipy.NewInterp(m)
	var out, errOut strings.Builder
	in.SetStdout(&out)
	in.SetStderr(&errOut)
	code, err := in.Run()
	if err != nil {
		return "", 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	if code != 0 {
		return "", 0, fmt.Errorf("%s: exit code %d: %s", p.Name, code, errOut.String())
	}
	return out.String(), in.Steps(), nil
}

// runC compiles a MiniC program and runs it on vm.Machine with no debugger
// and returns its stdout and the number of instructions it executed.
func runC(p *program) (string, int64, error) {
	prog, err := minic.Compile(p.Name, p.Src)
	if err != nil {
		return "", 0, err
	}
	var out strings.Builder
	m, err := vm.New(prog, vm.Config{Stdout: &out})
	if err != nil {
		return "", 0, err
	}
	stop := m.Run(0)
	if stop.Kind != vm.StopExit || stop.ExitCode != 0 {
		return "", 0, fmt.Errorf("%s: stopped with %v (exit %d, %v)", p.Name, stop.Kind, stop.ExitCode, stop.Err)
	}
	return out.String(), int64(m.Steps()), nil
}

// stdouts runs every program with run (runPy or runC) and returns their
// stdout.
func stdouts(ps []*program, run func(*program) (string, int64, error)) ([]string, error) {
	outs := make([]string, len(ps))
	for i, p := range ps {
		out, _, err := run(p)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}
