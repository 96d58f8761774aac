package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// GanttOptions configures ASCII Gantt rendering.
type GanttOptions struct {
	// From/To bound the rendered time range; To = 0 means trace end.
	From, To sim.Time
	// Width is the number of character columns (default 72).
	Width int
	// Tasks restricts and orders the rows; nil renders all tasks sorted.
	Tasks []string
}

// Gantt renders the execution intervals of the trace's tasks as an ASCII
// chart, one row per task, '#' marking modeled execution — the textual
// equivalent of the paper's Figure 8 timing diagrams.
func (r *Recorder) Gantt(w io.Writer, opts GanttOptions) error {
	width := opts.Width
	if width <= 0 {
		width = 72
	}
	to := opts.To
	if to == 0 {
		to = r.End()
	}
	if to <= opts.From {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	tasks := opts.Tasks
	if tasks == nil {
		tasks = r.Tasks()
	}
	span := to - opts.From
	nameW := 8
	for _, t := range tasks {
		if len(t) > nameW {
			nameW = len(t)
		}
	}
	for _, task := range tasks {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range r.ExecIntervals(task) {
			if iv.End <= opts.From || iv.Start >= to {
				continue
			}
			lo := int((maxT(iv.Start, opts.From) - opts.From) * sim.Time(width) / span)
			hi := int((minT(iv.End, to) - opts.From) * sim.Time(width) / span)
			if hi == lo && hi < width {
				hi = lo + 1 // make zero-width slivers visible
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = '#'
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, task, row); err != nil {
			return err
		}
	}
	// Time axis.
	axis := fmt.Sprintf("%-*s  %v%s%v", nameW, "", opts.From,
		strings.Repeat(" ", max(1, width-len(opts.From.String())-len(to.String()))), to)
	_, err := fmt.Fprintln(w, axis)
	return err
}

// EventList writes every record as one line — the event-by-event view of
// Figure 8.
func (r *Recorder) EventList(w io.Writer) error {
	for _, pg := range r.pages {
		for i := range pg {
			if _, err := fmt.Fprintln(w, r.record(&pg[i]).String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// CSV writes the records as comma-separated values with a header row,
// suitable for external plotting.
func (r *Recorder) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at,kind,task,from,to,label,arg"); err != nil {
		return err
	}
	for _, pg := range r.pages {
		for i := range pg {
			e := &pg[i]
			if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%s,%d\n", int64(e.at), e.kind(),
				r.str(e.task), r.str(e.from), r.str(e.to), r.str(e.label()), e.arg); err != nil {
				return err
			}
		}
	}
	return nil
}
