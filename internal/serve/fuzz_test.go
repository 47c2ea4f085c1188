package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
)

// decodeStrict decodes one JSON line into v, refusing fields v does not have.
func decodeStrict(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzScanQuery feeds raw query strings to /scan on a tiny live engine. The
// handler must never panic and must answer one of two ways: a 4xx with a JSON
// {"error": …} body, or a 200 NDJSON stream — header, receipts, trailer —
// every receipt of which names a chunk of the requested range once, carries
// that chunk's tuple count and equals the reference CRC streamed over the
// projected columns' bytes (copies taken beforehand through a private
// engine), and whose totals and Q6 aggregate add up when the trailer says
// done. Sessions run one at a time, so the gate never queues or sheds.
func FuzzScanQuery(f *testing.F) {
	// Four chunks of 64 tuples, the last one short, under the two-chunk
	// minimum budget: every session recycles frames, so a receipt assembled
	// from a stale per-column sum would show.
	const rows, tpc = 200, 64
	tf, err := engine.CreateFormat(filepath.Join(f.TempDir(), "fuzz.tbl"), engine.DSM, rows, tpc, 91)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { tf.Close() })
	n := tf.NumChunks()
	all := storage.AllCols(engine.NumCols)

	// The reference's inputs: every column's valid bytes and the Q6 partial
	// of every chunk.
	colBytes := make([][engine.NumCols][]byte, n)
	q6 := make([]exec.Q6Result, n)
	gold, err := engine.NewServer(engine.ServerConfig{Policy: core.Relevance, BufferBytes: 2 * tf.ChunkBytes()}, tf)
	if err != nil {
		f.Fatal(err)
	}
	_, err = gold.Scan(0, "golden", storage.NewRangeSet(storage.Range{End: n}), all, func(c int, d engine.ChunkData) {
		all.Each(func(col int) {
			colBytes[c][col] = append([]byte(nil), d.Col(col)[:d.Tuples()*engine.ColWidth(col)]...)
		})
		q6[c] = engine.Q6Chunk(d, exec.DefaultQ6())
	})
	gold.Close()
	if err != nil {
		f.Fatal(err)
	}

	eng, err := engine.NewServer(engine.ServerConfig{Policy: core.Relevance, BufferBytes: 2 * tf.ChunkBytes()}, tf)
	if err != nil {
		f.Fatal(err)
	}
	fe, err := New(Config{Engine: eng, Heartbeat: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { fe.Shutdown(context.Background()) })
	table := url.QueryEscape(eng.TableName(0))

	for _, q := range []string{
		"table=" + table,
		"table=" + table + "&cols=q1&tier=interactive",
		"table=" + table + "&cols=all&start=1&end=3&name=wide",
		"table=" + table + "&agg=q6&tier=batch",
		"table=" + table + "&cols=q1&agg=q6&start=3&end=4",
		"table=" + table + "&cols=0,10&name=%22quoted%22%0a",
		"table=" + table + "&cols=3,3,%203",
		"table=" + table + "&deadline_ms=1",
		"table=" + table + "&deadline_ms=9223372036854775807",
		"table=" + table + "&deadline_ms=-5",
		"table=" + table + "&deadline_ms=soon",
		"table=" + table + "&start=-1",
		"table=" + table + "&start=2&end=2",
		"table=" + table + "&end=99999999999999999999",
		"table=" + table + "&start=+1&end=0x3",
		"table=" + table + "&cols=11",
		"table=" + table + "&cols=,",
		"table=" + table + "&cols=0&agg=q6",
		"table=" + table + "&agg=q1",
		"table=" + table + "&tier=vip",
		"table=nope",
		"table=",
		"",
		"%zz&table=" + table + ";cols=q1",
		"table=" + table + "&table=nope&cols=q1&cols=all",
	} {
		f.Add(q)
	}

	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, "/scan", nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		fe.handleScan(rec, req)

		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			var e errorBody
			if rec.Code < 400 || rec.Code > 499 || rec.Header().Get("Content-Type") != "application/json" ||
				decodeStrict(body, &e) != nil || e.Error == "" {
				t.Fatalf("query %q: status %d, content type %q, body %q: want a 4xx with a JSON error body",
					rawQuery, rec.Code, rec.Header().Get("Content-Type"), body)
			}
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("query %q: 200 with content type %q", rawQuery, ct)
		}
		if len(body) == 0 || body[len(body)-1] != '\n' {
			t.Fatalf("query %q: stream does not end in a newline: %q", rawQuery, body)
		}
		lines := bytes.Split(body[:len(body)-1], []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("query %q: %d lines, want a header and a trailer: %q", rawQuery, len(lines), body)
		}
		var hdr Header
		if err := decodeStrict(lines[0], &hdr); err != nil {
			t.Fatalf("query %q: header %q: %v", rawQuery, lines[0], err)
		}
		if hdr.Start < 0 || hdr.Start >= hdr.End || hdr.End > n || len(hdr.Cols) == 0 || hdr.TuplesPerChunk != tpc {
			t.Fatalf("query %q: header %+v does not describe a scan of the %d-chunk table", rawQuery, hdr, n)
		}
		var tr Trailer
		if err := decodeStrict(lines[len(lines)-1], &tr); err != nil {
			t.Fatalf("query %q: trailer %q: %v", rawQuery, lines[len(lines)-1], err)
		}
		seen := make(map[int]bool)
		var tuples int64
		var agg exec.Q6Result
		for _, line := range lines[1 : len(lines)-1] {
			var c Chunk
			if err := decodeStrict(line, &c); err != nil {
				t.Fatalf("query %q: receipt %q: %v", rawQuery, line, err)
			}
			if c.HB || c.Chunk < hdr.Start || c.Chunk >= hdr.End || seen[c.Chunk] {
				t.Fatalf("query %q: receipt %+v outside [%d,%d), repeated, or a heartbeat", rawQuery, c, hdr.Start, hdr.End)
			}
			seen[c.Chunk] = true
			want := uint32(0)
			for i, col := range hdr.Cols {
				if col < 0 || col >= engine.NumCols || (i > 0 && col <= hdr.Cols[i-1]) {
					t.Fatalf("query %q: header cols %v", rawQuery, hdr.Cols)
				}
				want = crc32.Update(want, crc32.IEEETable, colBytes[c.Chunk][col])
			}
			if wantTuples := tf.Layout().ChunkTuples(c.Chunk); c.Tuples != wantTuples || c.CRC != want {
				t.Fatalf("query %q: receipt %+v, reference tuples %d crc %d", rawQuery, c, wantTuples, want)
			}
			tuples += c.Tuples
			agg.Add(q6[c.Chunk])
		}
		if tr.Chunks != len(seen) || tr.Tuples != tuples {
			t.Fatalf("query %q: trailer %+v after %d receipts, %d tuples", rawQuery, tr, len(seen), tuples)
		}
		if !tr.Done {
			// The one way a sequential session fails mid-stream is its own
			// deadline — one short enough to pass while four tiny chunks
			// stream; what it streamed before that was checked above.
			ms, _ := strconv.ParseInt(req.URL.Query().Get("deadline_ms"), 10, 64)
			if !strings.Contains(tr.Error, "deadline") || ms <= 0 || ms >= 60_000 {
				t.Fatalf("query %q: trailer error %q", rawQuery, tr.Error)
			}
			return
		}
		if len(seen) != hdr.End-hdr.Start {
			t.Fatalf("query %q: done after %d of %d chunks", rawQuery, len(seen), hdr.End-hdr.Start)
		}
		if req.URL.Query().Get("agg") != "q6" {
			agg = exec.Q6Result{}
		}
		if tr.Q6Revenue != agg.Revenue || tr.Q6Rows != agg.Rows {
			t.Fatalf("query %q: trailer Q6 (%d, %d), reference (%d, %d)", rawQuery, tr.Q6Revenue, tr.Q6Rows, agg.Revenue, agg.Rows)
		}
	})
}
