package main

import (
	"encoding/binary"
	"fmt"

	"coopscan/internal/bufferpool"
	"coopscan/internal/colstore/compress"
	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/experiments"
)

// The probes run single-threaded after the traced window, each as a
// probe.<name> span, calling one layer's public functions directly.

// probeTableRead reads every part of the table through
// TableFile.ReadPageRange into a reused buffer (checksum verification and, on
// compressed tables, decoding included) and returns decoded MiB per second.
func probeTableRead(tr *tracer, tf *engine.TableFile) (float64, error) {
	buf := make([]byte, tf.ChunkBytes())
	var bytes int64
	var err error
	d := tr.probe("tablefile_read", func() {
		for c := 0; c < tf.NumChunks() && err == nil; c++ {
			if tf.Format() == engine.NSM {
				first, count := tf.PartPages(c, -1)
				err = tf.ReadPageRange(first, count, buf)
				bytes += tf.ChunkBytes()
				continue
			}
			for col := 0; col < engine.NumCols && err == nil; col++ {
				first, count := tf.PartPages(c, col)
				n := tf.PageBytes(first)
				err = tf.ReadPageRange(first, count, buf[:n])
				bytes += n
			}
		}
	})
	return float64(bytes) / (1 << 20) / d.Seconds(), err
}

// probePinRelease times PinRange + Release over resident pages of a
// standalone pool, in ns per pair.
func probePinRelease(tr *tracer) (float64, error) {
	const pages, rounds = 4, 200_000
	page := make([]byte, 4096)
	pool := bufferpool.New(2*pages, bufferpool.LRU, func(bufferpool.PageID) ([]byte, error) { return page, nil })
	var err error
	d := tr.probe("pin_release", func() {
		for i := 0; i < rounds && err == nil; i++ {
			var v *bufferpool.ChunkView
			if v, err = pool.PinRange(0, pages); err == nil {
				v.Release()
			}
		}
	})
	return float64(d.Nanoseconds()) / rounds, err
}

// probeDecode re-encodes the first stripe of every compressed column of the
// workload's own table with the scheme the file reports for it and times
// compress.DecodeIntsInto, in ns per value, averaged per scheme. A table
// that stores no column under a scheme reports 0 for it.
func probeDecode(tr *tracer, tf *engine.TableFile) (map[compress.Scheme]float64, error) {
	const rounds = 20
	type acc struct{ nanos, values float64 }
	perScheme := make(map[compress.Scheme]*acc)
	n := int(tf.TuplesPerChunk())
	stripe := make([]byte, tf.ColStripeBytes(engine.ColComment))
	vals, dst := make([]int64, n), make([]int64, n)
	for col := 0; col < engine.NumCols; col++ {
		scheme, ok := tf.ColScheme(col)
		if !ok || engine.ColWidth(col) != 8 {
			continue
		}
		page := stripePage(tf, 0, col)
		raw := stripe[:tf.PageBytes(page)]
		if err := tf.ReadPageRange(page, 1, raw); err != nil {
			return nil, err
		}
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		enc, err := compress.EncodeInts(scheme, vals)
		if err != nil {
			return nil, err
		}
		d := tr.probe(fmt.Sprintf("decode.%s.col%d", scheme, col), func() {
			for r := 0; r < rounds && err == nil; r++ {
				_, err = compress.DecodeIntsInto(dst, enc)
			}
		})
		if err != nil {
			return nil, err
		}
		a := perScheme[scheme]
		if a == nil {
			a = new(acc)
			perScheme[scheme] = a
		}
		a.nanos += float64(d.Nanoseconds())
		a.values += float64(rounds * n)
	}
	out := make(map[compress.Scheme]float64)
	for s, a := range perScheme {
		out[s] = a.nanos / a.values
	}
	return out, nil
}

// probeSim runs the paper's Table 2 and the 512-query scheduler-scaling point
// in the simulator. The I/O request counts and the normalised latency come
// from a deterministic simulation and must repeat exactly from run to run and
// from commit to commit, unless a change alters the policy's decisions.
func probeSim(tr *tracer, m map[string]float64) {
	var t2 *experiments.Table2Result
	m["core.sim_table2_ms"] = tr.probe("sim_table2", func() {
		t2 = experiments.Table2(experiments.DefaultTable2())
	}).Seconds() * 1e3
	for _, r := range t2.Results {
		switch r.Policy {
		case core.Normal:
			m["core.sim_io_requests.normal"] = float64(r.IORequests)
		case core.Relevance:
			m["core.sim_io_requests.relevance"] = float64(r.IORequests)
			m["core.sim_norm_latency.relevance"] = r.AvgNormLatency
		}
	}
	opts := experiments.DefaultSchedScaling()
	opts.Queries, opts.ChunkSweep = []int{512}, nil
	tr.probe("sim_sched_q512", func() {
		m["core.sim_ns_per_decision_q512"] = experiments.SchedScaling(opts).Points[0].PerDecision
	})
}

// runProbes fills in every per-layer metric that is measured outside the
// window.
func runProbes(tr *tracer, tb *tables, m map[string]float64) error {
	tf, err := engine.Open(tb.paths[0])
	if err != nil {
		return err
	}
	defer tf.Close()
	if m["engine.tablefile_read_mibps"], err = probeTableRead(tr, tf); err != nil {
		return err
	}
	if m["bufferpool.pin_release_ns"], err = probePinRelease(tr); err != nil {
		return err
	}
	decode, err := probeDecode(tr, tf)
	if err != nil {
		return err
	}
	for _, s := range []compress.Scheme{compress.Raw, compress.PFOR, compress.PFORDelta, compress.PDict} {
		m["compress.decode_ns_per_value."+s.String()] = decode[s]
	}
	m["compress.stored_ratio"] = 0 // no codec on an uncompressed table
	if tf.Compressed() {
		m["compress.stored_ratio"] = float64(tf.StoredBytes()) / float64(int64(tf.NumChunks())*tf.ChunkBytes())
	}
	m["engine.open_ms"] = tb.openSeconds * 1e3 / numTables
	m["engine.create_mibps"] = float64(tb.createBytes) / (1 << 20) / tb.createSeconds
	probeSim(tr, m)
	return nil
}
