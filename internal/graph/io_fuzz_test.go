package graph

import (
	"bytes"
	"testing"
)

// fuzzMaxNodes bounds the vertex counts FuzzReadEdgeList feeds to
// ReadEdgeList. It is a precondition of the fuzz target only: the reader
// itself accepts up to MaxReadNodes, but a graph that large allocates
// hundreds of megabytes per input.
const fuzzMaxNodes = 1 << 16

// exceedsFuzzNodes reports whether some decimal number in data is larger
// than fuzzMaxNodes. Every value ReadEdgeList parses is such a digit run,
// so this bounds the header's vertex count and every endpoint (an
// endpoint past the header's count grows the vertex set to match).
func exceedsFuzzNodes(data []byte) bool {
	v := 0
	for _, c := range data {
		if c < '0' || c > '9' {
			v = 0
			continue
		}
		if v = 10*v + int(c-'0'); v > fuzzMaxNodes {
			return true
		}
	}
	return false
}

// FuzzReadEdgeList feeds arbitrary text to the edge-list reader: it must
// never panic, and every input it accepts must round-trip through
// WriteEdgeList and ReadEdgeList to a graph with the same fingerprint.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("3 2\n0 1\n1 2\n"))
	f.Add([]byte("# comment\n\n4 0\n"))
	f.Add([]byte("2 1\n0 5\n"))           // endpoint grows the vertex set
	f.Add([]byte("3 3\n0 0\n0 1\n1 0\n")) // self-loop and duplicate
	f.Add([]byte(" 3 1 \n\t0\t2\r\n"))    // stray whitespace
	f.Add([]byte("3 99999999999\n0 1\n")) // lying edge-count hint
	f.Add([]byte("+3 1\n-0 2\n"))         // signs strconv accepts
	f.Add([]byte("3 1\n0 -1\n"))
	f.Add([]byte("3\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if exceedsFuzzNodes(data) {
			t.Skip()
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read of written graph: %v\n%s", err, buf.Bytes())
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changes the fingerprint: %v -> %v", g.Fingerprint(), back.Fingerprint())
		}
	})
}
