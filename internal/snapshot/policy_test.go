package snapshot

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestPolicyPayloadRoundTrip pins the policy envelope's wire form: a bare
// kind, a payload whose key differs from its kind, and a payload nesting
// another policy's envelope all encode to the expected bytes and decode
// back to the same value.
func TestPolicyPayloadRoundTrip(t *testing.T) {
	type wrapper struct {
		Base  Policy `json:"base"`
		Ticks int    `json:"ticks"`
	}
	inner, err := NewPolicyState("delta", "delta", map[string]int{"max_total": 64})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := NewPolicyState("bankbw", "bankbw", wrapper{Base: *inner, Ticks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    Policy
		wire string
	}{
		{Policy{Kind: "snuca"}, `{"kind":"snuca"}`},
		{Policy{Kind: "ideal-central", Key: "ideal", State: json.RawMessage(`{"tick_next":7}`)},
			`{"kind":"ideal-central","ideal":{"tick_next":7}}`},
		{*nested, `{"kind":"bankbw","bankbw":{"base":{"kind":"delta","delta":{"max_total":64}},"ticks":3}}`},
	} {
		got, err := json.Marshal(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.wire {
			t.Fatalf("marshal = %s, want %s", got, tc.wire)
		}
		var back Policy
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.p) {
			t.Fatalf("round trip of %s = %+v, want %+v", tc.wire, back, tc.p)
		}
	}

	var w wrapper
	if err := nested.DecodeState("bankbw", &w); err != nil {
		t.Fatal(err)
	}
	var st struct {
		MaxTotal int `json:"max_total"`
	}
	if err := w.Base.DecodeState("delta", &st); err != nil || st.MaxTotal != 64 || w.Ticks != 3 {
		t.Fatalf("nested decode = %+v, %+v, %v", w, st, err)
	}
}

// TestPolicyPayloadRejects covers the malformed envelopes: two payload
// keys fail to decode at all, and DecodeState refuses a payload under
// another policy's key and a stateful policy with no payload.
func TestPolicyPayloadRejects(t *testing.T) {
	var p Policy
	err := json.Unmarshal([]byte(`{"kind":"delta","delta":{},"ideal":{}}`), &p)
	if err == nil || !strings.Contains(err.Error(), "2 payloads") {
		t.Fatalf("two payload keys: err = %v", err)
	}

	var v struct{}
	if err := json.Unmarshal([]byte(`{"kind":"delta","ideal":{"tick_next":1}}`), &p); err != nil {
		t.Fatal(err)
	}
	if err := p.DecodeState("delta", &v); err == nil {
		t.Fatal("DecodeState accepted a payload under another policy's key")
	}
	if err := json.Unmarshal([]byte(`{"kind":"delta"}`), &p); err != nil {
		t.Fatal(err)
	}
	if err := p.DecodeState("delta", &v); err == nil {
		t.Fatal("DecodeState accepted a stateful policy with no payload")
	}
	if err := json.Unmarshal([]byte(`{"kind":"delta","delta":null}`), &p); err != nil || p.State != nil {
		t.Fatalf("null payload: %+v, %v", p, err)
	}
	if _, err := json.Marshal(Policy{Kind: "x", State: json.RawMessage(`{}`)}); err == nil {
		t.Fatal("marshaled state without a key")
	}
}

// TestFloatBitsHelpers checks the shared float↔bits helpers keep nil and
// empty apart (they encode as null and [] respectively) and round-trip
// special values exactly.
func TestFloatBitsHelpers(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1.5}
	back := make([]float64, len(fs))
	BitsInto(back, FloatBits(fs))
	for i := range fs {
		if math.Float64bits(back[i]) != math.Float64bits(fs[i]) {
			t.Fatalf("element %d: %v, want %v", i, back[i], fs[i])
		}
	}
	if FloatBits(nil) != nil || FloatBits([]float64{}) == nil {
		t.Fatal("nil/empty distinction lost")
	}
	rows := [][]float64{nil, {}, {2}}
	got := BitsMatrix[[]float64](MatrixBits(rows), 4)
	if len(got) != 4 || got[0] != nil || got[1] == nil || len(got[1]) != 0 || got[2][0] != 2 || got[3] != nil {
		t.Fatalf("matrix round trip = %#v", got)
	}
	dst := []float64{7, 7, 7}
	BitsInto(dst, FloatBits([]float64{1}))
	if dst[0] != 1 || dst[1] != 7 {
		t.Fatalf("BitsInto = %v", dst)
	}
}
