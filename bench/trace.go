package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Trace is the simulated minute (or the
// round's minute) the work belongs to; Parent indexes the enclosing span.
type span struct {
	Name   string `json:"name"`
	Trace  int32  `json:"trace"`
	Parent int32  `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int32  `json:"count,omitempty"` // records / rows the call covered
}

// recorder keeps spans in memory and writes them out when the benchmark
// ends. A nil or disabled recorder records nothing, which is the untraced
// twin the tracing overhead is measured against.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
	trace int32
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) setTrace(id int) { r.trace = int32(id) }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if !r.on {
		return
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent,
		Start: time.Since(r.epoch).Nanoseconds()})
}

// end closes the innermost open span; count is the work it covered.
func (r *recorder) end(count int) {
	if !r.on {
		return
	}
	n := len(r.open) - 1
	s := &r.spans[r.open[n]]
	s.End = time.Since(r.epoch).Nanoseconds()
	s.Count = int32(count)
	r.open = r.open[:n]
}

// ledgerRow is one span name's share of the traced wall.
type ledgerRow struct {
	name  string
	calls int
	count int64 // Σ span counts
	self  int64 // Σ durations minus children, ns
}

// selfTimes returns every span's self time: its duration minus the part
// its children cover, in ns.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i := range r.spans {
		d := r.spans[i].End - r.spans[i].Start
		self[i] += d
		if p := r.spans[i].Parent; p >= 0 {
			self[p] -= d
		}
	}
	return self
}

// ledger sums self time per span name.
func (r *recorder) ledger() map[string]*ledgerRow {
	self := r.selfTimes()
	rows := map[string]*ledgerRow{}
	for i := range r.spans {
		s := &r.spans[i]
		row := rows[s.Name]
		if row == nil {
			row = &ledgerRow{name: s.Name}
			rows[s.Name] = row
		}
		row.calls++
		row.count += int64(s.Count)
		row.self += self[i]
	}
	return rows
}

// selfMS returns one span name's per-call self times in ms.
func (r *recorder) selfMS(name string) []float64 {
	self := r.selfTimes()
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// isGlue marks the benchmark's own loops, not a layer of the system: the
// run root and the per-minute / per-round frames. Their self time is what
// the ledger could not attribute.
func isGlue(name string) bool { return strings.HasPrefix(name, "bench.") }

// layerOf maps a span name to its module: "sflow.decode" → "sflow".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// wall is the duration of the root span.
func (r *recorder) wall() int64 {
	for i := range r.spans {
		if r.spans[i].Parent < 0 {
			return r.spans[i].End - r.spans[i].Start
		}
	}
	return 0
}

// unattributed is 1 − Σ layer self time ÷ traced wall.
func (r *recorder) unattributed() float64 {
	wall := r.wall()
	if wall == 0 {
		return 0
	}
	var attributed int64
	for _, row := range r.ledger() {
		if !isGlue(row.name) {
			attributed += row.self
		}
	}
	return 1 - float64(attributed)/float64(wall)
}

// printLedger writes the per-layer table sorted by share of the traced
// wall, every ratio next to its base.
func (r *recorder) printLedger(w io.Writer) {
	rows := r.ledger()
	wall := r.wall()
	type layerRow struct {
		layer string
		self  int64
		spans []*ledgerRow
	}
	layers := map[string]*layerRow{}
	for _, row := range rows {
		l := layerOf(row.name)
		lr := layers[l]
		if lr == nil {
			lr = &layerRow{layer: l}
			layers[l] = lr
		}
		lr.self += row.self
		lr.spans = append(lr.spans, row)
	}
	order := make([]*layerRow, 0, len(layers))
	for _, lr := range layers {
		order = append(order, lr)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].self != order[j].self {
			return order[i].self > order[j].self
		}
		return order[i].layer < order[j].layer
	})
	fmt.Fprintf(w, "layer ledger — traced wall %.3f s (self time = span minus children)\n", float64(wall)/1e9)
	fmt.Fprintf(w, "  %-10s %-26s %9s %12s %12s %8s\n", "layer", "span", "calls", "self ms", "of wall ms", "share")
	for _, lr := range order {
		fmt.Fprintf(w, "  %-10s %-26s %9s %12.2f %12.2f %7.2f%%\n", lr.layer, "", "", float64(lr.self)/1e6, float64(wall)/1e6, 100*float64(lr.self)/float64(wall))
		sort.Slice(lr.spans, func(i, j int) bool { return lr.spans[i].self > lr.spans[j].self })
		for _, row := range lr.spans {
			fmt.Fprintf(w, "  %-10s %-26s %9d %12.2f %12.2f %7.2f%%\n", "", row.name, row.calls, float64(row.self)/1e6, float64(wall)/1e6, 100*float64(row.self)/float64(wall))
		}
	}
}

// writeJSON dumps every span.
func (r *recorder) writeJSON(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	head := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		WallNS   int64  `json:"wall_ns"`
		Spans    int    `json:"spans"`
	}{workload, seed, r.wall(), len(r.spans)}
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"header":`)
	if err := enc.Encode(&head); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(bw, `,"spans":[`)
	for i := range r.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
