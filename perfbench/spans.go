package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// spanFile writes spans as gzip-compressed tab-separated lines:
//
//	trace_id  span  parent  start_ns  end_ns
//
// Spans of one grant cycle or one sweep round share a trace_id; parent
// names the enclosing span of the same trace ("" for the root). Times are
// nanoseconds from the start of the traced window.
type spanFile struct {
	f    *os.File
	gz   *gzip.Writer
	bw   *bufio.Writer
	line []byte
}

func createSpanFile(dir, workload string) (*spanFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".tsv.gz"))
	if err != nil {
		return nil, err
	}
	gz, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // fails only for an invalid level
	sf := &spanFile{f: f, gz: gz, bw: bufio.NewWriter(gz)}
	sf.bw.WriteString("trace_id\tspan\tparent\tstart_ns\tend_ns\n")
	return sf, nil
}

func (sf *spanFile) span(trace, name, parent string, start, end int64) {
	b := append(sf.line[:0], trace...)
	b = append(b, '\t')
	b = append(b, name...)
	b = append(b, '\t')
	b = append(b, parent...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, start, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, end, 10)
	b = append(b, '\n')
	sf.line = b
	sf.bw.Write(b)
}

func (sf *spanFile) close() error {
	err := sf.bw.Flush()
	if e := sf.gz.Close(); err == nil {
		err = e
	}
	if e := sf.f.Close(); err == nil {
		err = e
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// cycleSpanNames are the four client calls of a grant cycle, in order.
var cycleSpanNames = [4]string{"client.Inform", "client.Wait", "client.Release", "client.End"}

// writeCycleSpans writes a traced daemon window: per cycle a "cycle" root
// and one child span per client call. Worker k's n-th cycle has trace id
// "k.n". No file is written when dir is "".
func writeCycleSpans(dir, workload string, recs [][]cycleRec) error {
	if dir == "" {
		return nil
	}
	sf, err := createSpanFile(dir, workload)
	if err != nil {
		return err
	}
	var id []byte
	for k, wrecs := range recs {
		for n, c := range wrecs {
			id = strconv.AppendInt(append(strconv.AppendInt(id[:0], int64(k), 10), '.'), int64(n), 10)
			tid := string(id)
			sf.span(tid, "cycle", "", c.start, c.start+int64(c.marks[7]))
			for i, name := range cycleSpanNames {
				sf.span(tid, name, "cycle", c.start+int64(c.marks[2*i]), c.start+int64(c.marks[2*i+1]))
			}
		}
	}
	return sf.close()
}
