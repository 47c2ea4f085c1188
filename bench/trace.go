package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own code around each call into a
// layer, kept in memory and written once when the run ends:
//
//	scan            one scan, call/request start → return; id = scan name
//	├ first_chunk   scan start → first chunk delivered (or → return)
//	│ └ admit       serve only: request sent → header line received
//	├ deliver_wait  end of one onChunk → start of the next
//	└ kernel        engine.Q6Chunk / Q1Chunk inside onChunk
//	device_read     one ReadAt through the TableFile.WrapReader seam
//	probe.*         the single-threaded probes
//
// A span's self time is its duration minus its children's.
type spanKind uint8

const (
	spanScan spanKind = iota
	spanFirstChunk
	spanAdmit
	spanDeliverWait
	spanKernel
	spanDeviceRead
	spanProbe
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"scan", "first_chunk", "admit", "deliver_wait", "kernel", "device_read", "probe"}

// spanParent is the kind each span's parent has (itself = root).
var spanParent = [numSpanKinds]spanKind{spanScan, spanScan, spanFirstChunk, spanScan, spanScan, spanDeviceRead, spanProbe}

type span struct {
	kind        spanKind
	stream, idx int32  // the scan the span belongs to (scan-side kinds)
	label       string // probe name
	start, end  int64  // ns since the tracer's epoch
}

// tracer collects spans. Scan-side spans go to the owning stream's slice
// without locking (one goroutine per stream); device reads and probes, which
// come from other goroutines, share a mutex-guarded slice.
type tracer struct {
	epoch     time.Time
	perStream [][]span
	mu        sync.Mutex
	shared    []span
}

// newTracer returns a tracer for a system with the given stream count; the
// system sets the epoch when it starts.
func newTracer(streams int) *tracer {
	return &tracer{perStream: make([][]span, streams)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) scanSpan(kind spanKind, stream, idx int, start, end int64) {
	t.perStream[stream] = append(t.perStream[stream], span{kind: kind, stream: int32(stream), idx: int32(idx), start: start, end: end})
}

func (t *tracer) sharedSpan(kind spanKind, label string, start, end time.Time) {
	t.mu.Lock()
	t.shared = append(t.shared, span{kind: kind, label: label, start: t.since(start), end: t.since(end)})
	t.mu.Unlock()
}

// probe times fn as a probe.<name> span and returns its duration.
func (t *tracer) probe(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.sharedSpan(spanProbe, name, start, end)
	}
	return end.Sub(start)
}

// totals returns, per span kind, the summed duration of spans that lie
// inside [from, to) and the part of it not covered by child spans.
func (t *tracer) totals(from, to int64) (total, self [numSpanKinds]float64) {
	add := func(s span) {
		if s.start < from || s.end > to {
			return
		}
		d := float64(s.end-s.start) / 1e9
		total[s.kind] += d
		self[s.kind] += d
		if p := spanParent[s.kind]; p != s.kind {
			self[p] -= d
		}
	}
	for _, ss := range t.perStream {
		for _, s := range ss {
			add(s)
		}
	}
	for _, s := range t.shared {
		add(s)
	}
	return total, self
}

// write dumps every span as one JSON document.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"unit":"ns since run start","spans":[`, workload)
	first := true
	emit := func(s span) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		name, id, parent := spanNames[s.kind], "", ""
		scanID := fmt.Sprintf("s%d.%d", s.stream, s.idx)
		switch s.kind {
		case spanScan:
			id = scanID
		case spanFirstChunk:
			id, parent = scanID+"/first_chunk", scanID
		case spanAdmit:
			parent = scanID + "/first_chunk"
		case spanDeliverWait, spanKernel:
			parent = scanID
		case spanProbe:
			name = "probe." + s.label
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"id\":%q,\"parent\":%q,\"start\":%d,\"end\":%d}", name, id, parent, s.start, s.end)
	}
	for _, ss := range t.perStream {
		for _, s := range ss {
			emit(s)
		}
	}
	for _, s := range t.shared {
		emit(s)
	}
	total, self := t.totals(0, 1<<62)
	fmt.Fprint(w, "\n],\"seconds_by_span\":{")
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:{\"total\":%.6f,\"self\":%.6f}", spanNames[k], total[k], self[k])
	}
	fmt.Fprint(w, "}}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// deviceMeter counts and times every read that crosses the
// TableFile.WrapReader seam, the place internal/iofault plugs in.
type deviceMeter struct {
	reads, bytes, nanos atomic.Int64
	tr                  *tracer
}

type deviceCounts struct{ reads, bytes, nanos int64 }

func (m *deviceMeter) snapshot() deviceCounts {
	if m == nil {
		return deviceCounts{}
	}
	return deviceCounts{m.reads.Load(), m.bytes.Load(), m.nanos.Load()}
}

// wrap is the function handed to TableFile.WrapReader.
func (m *deviceMeter) wrap(r io.ReaderAt) io.ReaderAt { return meteredReader{r, m} }

type meteredReader struct {
	r io.ReaderAt
	m *deviceMeter
}

func (r meteredReader) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := r.r.ReadAt(p, off)
	end := time.Now()
	r.m.reads.Add(1)
	r.m.bytes.Add(int64(n))
	r.m.nanos.Add(int64(end.Sub(start)))
	r.m.tr.sharedSpan(spanDeviceRead, "", start, end)
	return n, err
}
