package viz

import (
	"fmt"
	"sort"
	"strings"

	"easytracker/internal/core"
)

// MemViewOptions configures the registers-and-memory view (paper Fig. 7):
// the CPU registers alongside the raw memory rendered as a one-dimensional
// array of words.
type MemViewOptions struct {
	Title string
	// Segments to render; each shows up to MaxWords words: its first ones,
	// or for the segment named "stack", the ones from sp upward.
	Segments []core.Segment
	// MaxWords caps the words shown per segment (default 16).
	MaxWords int
	// Highlight marks addresses to emphasize (e.g. sp, fp targets).
	Highlight map[uint64]string
}

// memReader reads inferior memory (implemented by the MiniGDB tracker).
type memReader interface {
	ValueAt(addr uint64, size int) ([]byte, error)
}

// shownWords returns the first address and the number of words the view
// shows of seg. The stack grows down from its segment's end, so its live
// words are the ones from sp (rounded down to a word) upward; every other
// segment shows its first words.
func shownWords(seg core.Segment, regs map[string]uint64, maxWords int) (uint64, int) {
	start, end := seg.Start, seg.Start+seg.Size
	if sp := regs["sp"] &^ 7; seg.Name == "stack" && sp > start {
		start = sp
		if start > end {
			start = end
		}
	}
	words := (end - start) / 8
	if words > uint64(maxWords) {
		words = uint64(maxWords)
	}
	return start, int(words)
}

// MemViewText renders the registers and memory as the splittable-terminal
// text view of Fig. 7.
func MemViewText(regs map[string]uint64, mem memReader, opt MemViewOptions) string {
	if opt.MaxWords == 0 {
		opt.MaxWords = 16
	}
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", opt.Title)
	}
	b.WriteString("registers:\n")
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	sort.Strings(names)
	col := 0
	for _, n := range names {
		fmt.Fprintf(&b, "  %-4s 0x%016x", n, regs[n])
		col++
		if col%3 == 0 {
			b.WriteString("\n")
		}
	}
	if col%3 != 0 {
		b.WriteString("\n")
	}
	for _, seg := range opt.Segments {
		fmt.Fprintf(&b, "memory (%s @ %#x, %d bytes):\n", seg.Name, seg.Start, seg.Size)
		start, words := shownWords(seg, regs, opt.MaxWords)
		for i := 0; i < words; i++ {
			addr := start + uint64(i*8)
			raw, err := mem.ValueAt(addr, 8)
			if err != nil {
				fmt.Fprintf(&b, "  0x%08x  <unmapped>\n", addr)
				continue
			}
			var v uint64
			for j := 7; j >= 0; j-- {
				v = v<<8 | uint64(raw[j])
			}
			mark := ""
			if m, ok := opt.Highlight[addr]; ok {
				mark = "  <-- " + m
			}
			fmt.Fprintf(&b, "  0x%08x  0x%016x  %20d%s\n", addr, v, int64(v), mark)
		}
	}
	return b.String()
}

// MemViewSVG renders the same view graphically: a register table on the
// left and memory words as a vertical array on the right.
func MemViewSVG(regs map[string]uint64, mem memReader, opt MemViewOptions) string {
	if opt.MaxWords == 0 {
		opt.MaxWords = 16
	}
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	sort.Strings(names)

	totalWords := 0
	for _, seg := range opt.Segments {
		_, w := shownWords(seg, regs, opt.MaxWords)
		totalWords += w + 2
	}
	rows := len(names)
	if totalWords > rows {
		rows = totalWords
	}
	h := rows*rowH + 2*padY + 60
	s := NewSVG(760, h)
	y := padY
	if opt.Title != "" {
		s.Text(padX, y+14, fontSize+2, ColText, opt.Title)
		y += 28
	}
	// Registers.
	s.Text(padX, y+12, fontSize, ColMuted, "registers")
	ry := y + 20
	s.Rect(padX, ry, 240, len(names)*rowH+4, ColFrame, ColBorder)
	for i, n := range names {
		yy := ry + i*rowH
		s.Text(padX+8, yy+rowH-4, fontSize, ColText, fmt.Sprintf("%-5s", n))
		s.Text(padX+70, yy+rowH-4, fontSize, ColText, fmt.Sprintf("0x%012x", regs[n]))
	}
	// Memory.
	memX := 320
	s.Text(memX, y+12, fontSize, ColMuted, "memory")
	my := y + 20
	for _, seg := range opt.Segments {
		s.Text(memX, my+12, fontSize-1, ColFrameHdr,
			fmt.Sprintf("%s @ %#x", seg.Name, seg.Start))
		my += 18
		start, words := shownWords(seg, regs, opt.MaxWords)
		for i := 0; i < words; i++ {
			addr := start + uint64(i*8)
			raw, err := mem.ValueAt(addr, 8)
			v := uint64(0)
			if err == nil {
				for j := 7; j >= 0; j-- {
					v = v<<8 | uint64(raw[j])
				}
			}
			fill := ColHeapObj
			if _, ok := opt.Highlight[addr]; ok {
				fill = ColSorted
			}
			s.Rect(memX, my, 400, rowH, fill, ColBorder)
			s.Text(memX+6, my+rowH-6, fontSize-1, ColMuted, fmt.Sprintf("0x%08x", addr))
			s.Text(memX+120, my+rowH-6, fontSize-1, ColText, fmt.Sprintf("0x%016x", v))
			if m, ok := opt.Highlight[addr]; ok {
				s.Text(memX+410, my+rowH-6, fontSize-1, ColAccent, "← "+m)
			}
			my += rowH
		}
		my += 10
	}
	return s.String()
}

// SourceListing renders the program text with the current line highlighted
// (the left panel of Figs. 1 and 7).
func SourceListing(lines []string, current int) string {
	var b strings.Builder
	for i, line := range lines {
		marker := "   "
		if i+1 == current {
			marker = "-> "
		}
		fmt.Fprintf(&b, "%s%3d | %s\n", marker, i+1, line)
	}
	return b.String()
}

// SourceSVG renders the listing as an SVG panel.
func SourceSVG(lines []string, current int, title string) string {
	h := len(lines)*18 + 2*padY + 30
	s := NewSVG(520, h)
	y := padY
	if title != "" {
		s.Text(padX, y+12, fontSize, ColText, title)
		y += 24
	}
	for i, line := range lines {
		yy := y + i*18
		if i+1 == current {
			s.Rect(padX-4, yy+2, 500, 18, "#ffe9c7", "none")
		}
		s.Text(padX, yy+15, fontSize-1, ColMuted, fmt.Sprintf("%3d", i+1))
		s.Text(padX+40, yy+15, fontSize-1, ColText, line)
	}
	return s.String()
}
