package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// answer is one successful response, as the benchmark keeps it for the
// checks after the timed window.
type answer struct {
	i      int  // request id: regenerates the request's graph or edit
	kind   byte // kindSolve, kindRead or kindWrite
	timed  bool // completed in the timed window (not the warm-up)
	full   bool // served at full quality
	hash   string
	prev   string // kindWrite: the version the PATCH was applied to
	size   int
	weight int64
	set    []int32
}

const (
	kindSolve byte = iota // inline solve; hash is the graph solved
	kindRead              // graph_ref read; hash is the version solved
	kindWrite             // PATCH; hash is the new version
)

// answerLog keeps the run's answers in a file in the run's directory. The
// timed window only appends to it; the checks read it back afterwards. So
// neither the checking nor the answers themselves are in the window's
// CPU time or on the heap it measures.
type answerLog struct {
	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	buf       []byte
	n         int // answers appended
	timedFrom int // index of the first answer of the timed window
	err       error
}

func newAnswerLog(dir string) (*answerLog, error) {
	f, err := os.CreateTemp(dir, "answers-")
	if err != nil {
		return nil, err
	}
	return &answerLog{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// add appends one answer.
func (l *answerLog) add(a answer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := append(l.buf[:0], a.kind)
	if a.full {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(a.i))
	b = appendString(b, a.hash)
	b = appendString(b, a.prev)
	b = binary.AppendUvarint(b, uint64(a.size))
	b = binary.AppendVarint(b, a.weight)
	b = binary.AppendUvarint(b, uint64(len(a.set)))
	for _, v := range a.set {
		b = binary.AppendVarint(b, int64(v))
	}
	l.buf = b
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
	l.n++
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// startTimed marks the answers appended from now on as the timed window's.
func (l *answerLog) startTimed() {
	l.mu.Lock()
	l.timedFrom = l.n
	l.mu.Unlock()
}

// each calls f on every answer, in the order they were appended. It must
// not run concurrently with add.
func (l *answerLog) each(f func(answer)) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	for k := 0; ; k++ {
		a, err := readAnswer(r)
		if errors.Is(err, io.EOF) {
			if k != l.n {
				return fmt.Errorf("answer log holds %d of %d answers", k, l.n)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("answer log: %w", err)
		}
		a.timed = k >= l.timedFrom
		f(a)
	}
}

func readAnswer(r *bufio.Reader) (answer, error) {
	var a answer
	var err error
	if a.kind, err = r.ReadByte(); err != nil {
		return a, err // io.EOF only here, between answers
	}
	full, err := r.ReadByte()
	a.full = full == 1
	uv := func() uint64 {
		if err != nil {
			return 0
		}
		var x uint64
		x, err = binary.ReadUvarint(r)
		return x
	}
	sv := func() int64 {
		if err != nil {
			return 0
		}
		var x int64
		x, err = binary.ReadVarint(r)
		return x
	}
	str := func() string {
		n := uv()
		if err != nil {
			return ""
		}
		b := make([]byte, n)
		_, err = io.ReadFull(r, b)
		return string(b)
	}
	a.i = int(uv())
	a.hash = str()
	a.prev = str()
	a.size = int(uv())
	a.weight = sv()
	a.set = make([]int32, uv())
	for k := range a.set {
		a.set[k] = int32(sv())
	}
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return a, err
}

// close removes the log.
func (l *answerLog) close() error {
	err := l.f.Close()
	if rerr := os.Remove(l.f.Name()); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
