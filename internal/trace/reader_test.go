package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// TestReaderVarintsMatchBinary parses every prefix of a run of varints of
// every length, plus overlong ones, through sliced and streamed windows,
// and requires binary.ReadUvarint's values and errors byte for byte.
func TestReaderVarintsMatchBinary(t *testing.T) {
	var stream []byte
	for k := range 65 {
		v := uint64(1)<<k - 1
		stream = binary.AppendUvarint(stream, v)
		stream = binary.AppendUvarint(stream, v+1)
		stream = binary.AppendVarint(stream, -int64(v)>>1)
	}
	stream = append(stream, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // 1<<63
	overlong := [][]byte{
		bytes.Repeat([]byte{0xff}, 11),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),
		append(bytes.Repeat([]byte{0x80}, 9), 0x01, 0x05),
	}
	want := func(data []byte) string {
		var out bytes.Buffer
		br := bytes.NewReader(data)
		for {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				// The bits read before an error are never used.
				v = 0
			}
			fmt.Fprintf(&out, "%d %v\n", v, err)
			if err != nil {
				return out.String()
			}
		}
	}
	readers := map[string]func(data []byte) reader{
		"sliced": func(data []byte) reader { return slicedReader(context.Background(), data) },
		"window10": func(data []byte) reader {
			return streamReader(context.Background(), bytes.NewReader(data), make([]byte, 0, 10))
		},
		"onebyte": func(data []byte) reader {
			return streamReader(context.Background(), iotest.OneByteReader(bytes.NewReader(data)), make([]byte, 0, 64))
		},
		"dataerr": func(data []byte) reader {
			return streamReader(context.Background(), iotest.DataErrReader(bytes.NewReader(data)), make([]byte, 0, 16))
		},
	}
	for _, input := range append([][]byte{stream}, overlong...) {
		for n := range len(input) + 1 {
			data := input[:n]
			for name, mk := range readers {
				r := mk(data)
				var got bytes.Buffer
				for {
					v := r.uvarint()
					if r.err != nil {
						v = 0
					}
					fmt.Fprintf(&got, "%d %v\n", v, r.err)
					if r.err != nil {
						break
					}
				}
				if w := want(data); got.String() != w {
					t.Fatalf("%s, %d bytes: parsed\n%s\nReadUvarint\n%s", name, n, got.String(), w)
				}
			}
		}
	}
}

// TestReaderStrAndRead checks the string and bulk paths at window
// boundaries: a string split across refills reads whole, and a cut inside
// one reads as io.ErrUnexpectedEOF, as io.ReadFull reports it.
func TestReaderStrAndRead(t *testing.T) {
	var data []byte
	for _, s := range []string{"", "a", "window-crossing string", string(bytes.Repeat([]byte("x"), 100))} {
		data = binary.AppendUvarint(data, uint64(len(s)))
		data = append(data, s...)
	}
	for n := range len(data) + 1 {
		r := streamReader(context.Background(), iotest.HalfReader(bytes.NewReader(data[:n])), make([]byte, 0, 16))
		var got []string
		for r.err == nil {
			if s := r.str(); r.err == nil {
				got = append(got, s)
			}
		}
		full := bytes.NewReader(data[:n])
		var want []string
		var wantErr error
		for {
			l, err := binary.ReadUvarint(full)
			if err != nil {
				wantErr = err
				break
			}
			b := make([]byte, l)
			if _, err := io.ReadFull(full, b); err != nil {
				wantErr = err
				break
			}
			want = append(want, string(b))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || r.err != wantErr {
			t.Fatalf("%d bytes: %q, %v; want %q, %v", n, got, r.err, want, wantErr)
		}
	}
}
