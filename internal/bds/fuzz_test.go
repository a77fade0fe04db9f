package bds

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"sciview/internal/colenc"
	"sciview/internal/metadata"
	"sciview/internal/tuple"
)

// FuzzBDSRequest feeds arbitrary payloads to the RPC handler's
// "subtable" method over the setup catalog: a hostile or corrupt request
// must yield an error or a response frame that decodes — never a panic
// or a hang.
func FuzzBDSRequest(f *testing.F) {
	enc := func(req subTableReq) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	filter := &metadata.Range{Attrs: []string{"x", "oilp"}, Lo: []float64{1, 2}, Hi: []float64{2, 12}}
	for _, wire := range []byte{0, WireEncoded} {
		for _, req := range []subTableReq{
			{Table: 0, Chunk: 0},
			{Table: 0, Chunk: 1, Filter: filter},
			{Table: 0, Chunk: 0, Project: []string{"x", "oilp"}},
			{Table: 0, Chunk: 1, Filter: filter, Project: []string{"oilp"}},
			{Table: 0, Chunk: 2},                                                // served by node 1
			{Table: 9, Chunk: 0},                                                // no such table
			{Table: 0, Chunk: 0, Filter: &metadata.Range{Attrs: []string{"x"}}}, // arity mismatch
		} {
			req.Wire = wire
			f.Add(enc(req))
		}
	}
	f.Add([]byte{})

	cat, disks := setup(f)
	svc := New(0, cat, disks[0])
	f.Fuzz(func(t *testing.T, payload []byte) {
		type reply struct {
			resp []byte
			err  error
		}
		done := make(chan reply, 1)
		go func() {
			resp, err := svc.handle("subtable", payload)
			done <- reply{resp, err}
		}()
		var r reply
		select {
		case r = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("handler hung on payload %x", payload)
		}
		if r.err != nil {
			return
		}
		var err error
		if colenc.IsEncoded(r.resp) {
			_, _, err = colenc.Decode(r.resp)
		} else {
			_, _, err = tuple.Decode(r.resp)
		}
		if err != nil {
			t.Fatalf("handler answered an undecodable frame: %v", err)
		}
		tuple.PutBuf(r.resp)
	})
}
