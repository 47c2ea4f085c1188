package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"coopscan/internal/engine"
)

// createOpts is what `coopscan create` parses from its arguments.
type createOpts struct {
	file  string
	table tableFlags
}

// parseCreate parses the arguments of create, where -compress implies -dsm
// instead of requiring it; a mistake ends the process with status 2.
func parseCreate(args []string) *createOpts {
	o := &createOpts{}
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	fs.StringVar(&o.file, "file", "", "table file path to create (required; refuses to overwrite)")
	o.table.register(fs)
	fs.Lookup("compress").Usage = "store DSM extents compressed under per-column schemes (implies -dsm)"
	fs.Parse(args)
	if o.file == "" {
		exit("create", 2, errors.New("-file is required"))
	}
	o.table.dsm = o.table.dsm || o.table.compress
	return o
}

// runCreate is the `coopscan create` subcommand: it generates a table file
// ahead of time — NSM, DSM, or compressed DSM — so live/multi/serve
// runs can point -file at it instead of generating on first use. For
// compressed tables it reports the per-column schemes and the stored
// footprint against the raw DSM equivalent.
func runCreate(args []string) {
	o := parseCreate(args)
	if _, err := os.Stat(o.file); err == nil {
		exit("create", 1, fmt.Errorf("%s already exists (refusing to overwrite)", o.file))
	}
	start := time.Now()
	tf, err := o.table.create(o.file, 0)
	if err != nil {
		exit("create", 1, err)
	}
	defer tf.Close()

	raw := int64(tf.NumChunks()) * tf.ChunkBytes()
	fmt.Printf("created %s: %s, %d rows, %d chunks × %s in %v\n",
		tf.Path(), describeFormat(tf), tf.Rows(), tf.NumChunks(), fmtBytes(tf.ChunkBytes()),
		time.Since(start).Round(time.Millisecond))
	if !tf.Compressed() {
		fmt.Printf("size: %s\n", fmtBytes(raw))
		return
	}
	fmt.Printf("size: %s stored of %s raw (%.2fx compression)\n",
		fmtBytes(tf.StoredBytes()), fmtBytes(raw), float64(raw)/float64(tf.StoredBytes()))
	for j := 0; j < engine.NumCols; j++ {
		if s, ok := tf.ColScheme(j); ok {
			fmt.Printf("  col %-2d %-10s\n", j, s)
		} else {
			fmt.Printf("  col %-2d %-10s\n", j, "identity")
		}
	}
}

// describeFormat renders a table file's physical format for reports,
// distinguishing compressed DSM from raw.
func describeFormat(tf *engine.TableFile) string {
	if tf.Compressed() {
		return fmt.Sprintf("%s compressed", tf.Format())
	}
	return tf.Format().String()
}
