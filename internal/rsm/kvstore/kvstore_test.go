package kvstore

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"joshua/internal/codec"
	"joshua/internal/rsm"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{ReqID: "user/kv#1", Op: OpAppend, Key: "k", Value: "v"}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, req)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{ReqID: "user/kv#2", OK: true, Value: "v", Found: true}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, resp)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0}, {99}, {kindRequest}, {kindResponse, 0xFF}} {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("DecodeRequest(%v) should fail", b)
		}
		if _, err := DecodeResponse(b); err == nil {
			t.Errorf("DecodeResponse(%v) should fail", b)
		}
	}
	// A response is not a request and vice versa.
	if _, err := DecodeRequest(EncodeResponse(&Response{ReqID: "x"})); err == nil {
		t.Error("DecodeRequest of a response should fail")
	}
	if _, err := DecodeResponse(EncodeRequest(&Request{ReqID: "x"})); err == nil {
		t.Error("DecodeResponse of a request should fail")
	}
}

func TestQuickRequest(t *testing.T) {
	f := func(reqID, key, value string, op byte) bool {
		req := &Request{ReqID: reqID, Op: Op(op), Key: key, Value: value}
		got, err := DecodeRequest(EncodeRequest(req))
		return err == nil && reflect.DeepEqual(req, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreApplySnapshotRestore(t *testing.T) {
	src := NewStore()
	apply := func(op Op, key, value string) *Response {
		t.Helper()
		payload := EncodeRequest(&Request{ReqID: "r", Op: op, Key: key, Value: value})
		resp, err := DecodeResponse(applied(src, rsm.Command{ReqID: []byte("r"), Payload: payload}))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	apply(OpPut, "a", "1")
	if resp := apply(OpAppend, "a", "2"); resp.Value != "12" {
		t.Errorf("append -> %+v", resp)
	}
	apply(OpPut, "b", "3")
	if resp := apply(OpDelete, "b", ""); !resp.Found {
		t.Errorf("delete -> %+v", resp)
	}
	if resp := apply(OpGet, "a", ""); resp.OK {
		t.Errorf("replicating a get should fail, got %+v", resp)
	}
	if len(applied(src, rsm.Command{ReqID: []byte("r"), Payload: []byte{0xFF}})) != 0 {
		t.Error("malformed payload should produce no response")
	}

	dst := NewStore()
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Dump(), map[string]string{"a": "12"}) {
		t.Errorf("restored state = %v", dst.Dump())
	}
	if !bytes.Equal(src.Snapshot(), src.Snapshot()) {
		t.Error("snapshot is nondeterministic")
	}
	if err := dst.Restore([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("restoring garbage should fail")
	}
}

// applied runs cmd through Apply and returns the reply it wrote.
func applied(s *Store, cmd rsm.Command) []byte {
	e := codec.NewEncoder(64)
	s.Apply(cmd, e)
	return e.Bytes()
}
