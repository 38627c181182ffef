package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLSink is a Tracer writing one JSON object per line. Encoding is
// hand-rolled append-based into a reused buffer, so steady-state emission
// does not allocate. Close (or Flush) must be called to drain the
// underlying bufio writer.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // closed by Close when the sink owns the destination
	buf []byte
	err error
}

// NewJSONLSink returns a sink writing to w. If w is an io.Closer, Close
// closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Tracer. Write errors are sticky and reported by Close.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Flush drains buffered events to the destination.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close flushes and, when the sink owns an io.Closer destination, closes
// it. It returns the first error encountered over the sink's lifetime.
func (s *JSONLSink) Close() error {
	ferr := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// ReadEvents decodes a JSONL event stream (as written by JSONLSink).
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
