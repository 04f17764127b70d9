package snapshot

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"delta/internal/sim"
)

// sampleEnvelope populates every field the hand-written codec touches,
// including the edge cases encoding/json treats specially: nil versus empty
// slices, omitempty fields set and unset, extreme integers, and strings that
// json.Marshal escapes.
func sampleEnvelope() *Envelope {
	cache := func(seed uint64) Cache {
		return Cache{
			Sets: 2, Ways: 2, Clk: seed,
			Addrs:     []uint64{0, seed, math.MaxUint64, 1 << 40},
			Flags:     []byte{0, 1, 2, 3},
			Owners:    []int16{-1, 0, math.MaxInt16, math.MinInt16},
			Sharers:   []uint64{0, 1, 2, 3},
			Used:      []uint64{9, 8, 7, 6},
			Occupancy: []uint64{3, 1},
			Stats:     CacheStats{Accesses: 1, Hits: 2, Misses: 3, Evictions: 4, DirtyEvicts: 5, Invals: 6, BulkWalks: 7},
		}
	}
	full := Tile{
		Core: CPU{Cycle: 1, DispatchQ: 2, EpochOpen: true, EpochEnd: 3, EpochCount: -4, EpochInstr: 5,
			Stats: CPUStats{Instructions: 6, MemAccesses: 7, LongMisses: 8, Epochs: 9, MissLatSum: 10, MissStall: 11},
			Last:  CPUStats{Instructions: 12}},
		L1: cache(1), L2: cache(2), LLC: cache(3),
		Mon: Umon{Stacks: [][]uint64{{1, 2}, {}, nil}, HitsBits: []uint64{math.Float64bits(0.5)},
			MissesBits: 1, AccessesBits: 2, LastHitsBits: []uint64{}, LastMissesBits: 3, LastAccessesBits: 4},
		Gen:  &Gen{Kind: "region", Words: []uint64{1, 2}, Kids: []Gen{{Kind: "idle"}}},
		Base: 1 << 41, LLCAccesses: 1, LLCRemoteHits: 2, LLCLocalHits: 3, MemFetches: 4, Warmed: true,
		StartCycle: 5, StartInstr: 6, StartLLCAcc: 7, StartMemF: 8, DoneCycle: 9, DoneInstr: 10,
		DoneLLCAcc: 11, DoneMemF: 12, LastLLCAccesses: 13, IdleStreak: 14,
		LocalHitsBase: 15, RemoteHitsBase: 16, WarmBase: 17, RatePct: 200, ThrottlePct: -1,
		SampInstr: 18, SampCycle: 19, SampLLCAcc: 20, SampBankAcc: 21, SampBankHits: 22,
	}
	sparse := Tile{L1: Cache{Sets: 1, Ways: 1, Addrs: []uint64{}, Flags: []byte{}, Owners: []int16{}}}
	return &Envelope{
		Kind:      "delta.simulator <&>",
		Config:    json.RawMessage(`{"Cores": 2, "Name":"a<b"}`),
		Workloads: &Workloads{Mix: "w2", Apps: []AppAssignment{{Core: 1, App: "mcf", Shared: true}}},
		Chip: &Chip{
			Now:    math.MaxUint64,
			Tiles:  []Tile{full, sparse},
			Events: []sim.PendingEvent{{When: 5, Seq: 1, Msg: sim.Msg{Kind: "challenge", A: 1, FBits: 2, Flag: true}}},
			Policy: Policy{Kind: "lfoc", Key: "lfoc",
				State: json.RawMessage(`{"tick_next":1,"cluster_of":[0,1],"smooth_bits":[null,[1]]}`)},
			NoC:        NoC{Stats: NoCStats{Messages: [3]uint64{1, 2, 3}}, Links: []Link{{A: 0, B: 1, Count: 2}}},
			Mem:        Mem{Busy: []uint64{1}, Stats: []MemStats{{Requests: 1, QueueDelay: 2}}},
			Classifier: &Classifier{Pages: []Page{{Page: 7, Owner: -1, Shared: true}}},
			Sampler:    &Sampler{Quanta: 3, Cycle: 4},
			Stats:      ChipStats{InvalLines: 1, PageReclassify: 2},
			Departed:   []DepartedResult{{Core: 3, Instructions: 4, IPCBits: math.Float64bits(1.5)}},
		},
	}
}

// reference is the encoding/json form of env with the schema version Encode
// stamps.
func reference(t *testing.T, env *Envelope) []byte {
	t.Helper()
	cp := *env
	cp.SchemaVersion = Version
	want, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	cases := map[string]func(*Envelope){
		"full":        func(*Envelope) {},
		"no chip":     func(e *Envelope) { e.Chip = nil },
		"bare":        func(e *Envelope) { e.Config, e.Workloads, e.Kind = nil, nil, "" },
		"nil tiles":   func(e *Envelope) { e.Chip.Tiles = nil },
		"empty tiles": func(e *Envelope) { e.Chip.Tiles = []Tile{} },
		"nil arrays": func(e *Envelope) {
			e.Chip.Tiles[0].L2 = Cache{}
			e.Chip.Tiles[0].Mon = Umon{}
		},
		"empty optional lists": func(e *Envelope) {
			e.Chip.Events, e.Chip.Departed = []sim.PendingEvent{}, []DepartedResult{}
			e.Chip.Classifier, e.Chip.Sampler = nil, nil
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			env := sampleEnvelope()
			mutate(env)
			got, err := Encode(env)
			if err != nil {
				t.Fatal(err)
			}
			if env.SchemaVersion != 0 {
				t.Fatal("Encode wrote the envelope's schema version")
			}
			want := reference(t, env)
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode differs from json.Marshal\n got %s\nwant %s", got, want)
			}
			dec, ok := DecodeCanonical(got)
			if !ok {
				t.Fatal("DecodeCanonical rejected Encode's output")
			}
			var ref Envelope
			if err := json.Unmarshal(got, &ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, &ref) {
				t.Fatalf("DecodeCanonical differs from json.Unmarshal\n got %+v\nwant %+v", dec, &ref)
			}
		})
	}
}

func TestEncodeInvalidConfig(t *testing.T) {
	env := sampleEnvelope()
	env.Config = json.RawMessage(`{"Cores":`)
	_, err := Encode(env)
	_, want := json.Marshal(env)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Encode error %v, json.Marshal error %v", err, want)
	}
}

// TestDecodeFallback: input outside the canonical form leaves the fast path
// and decodes (or fails) exactly as json.Unmarshal does.
func TestDecodeFallback(t *testing.T) {
	canon, err := Encode(sampleEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(json.RawMessage(canon), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	replace := func(old, new string) []byte {
		if !bytes.Contains(canon, []byte(old)) {
			t.Fatalf("%q not in the canonical form", old)
		}
		return bytes.Replace(canon, []byte(old), []byte(new), 1)
	}
	cases := map[string][]byte{
		"indented":        indented,
		"trailing space":  append(append([]byte{}, canon...), ' '),
		"escaped base64":  replace(`"flags":"AAECAw=="`, `"flags":"AAEC\u0041w=="`),
		"unknown key":     replace(`{"now":`, `{"x":1,"now":`),
		"folded case key": replace(`"sets":`, `"SETS":`),
		"reordered keys":  replace(`{"sets":2,"ways":2`, `{"ways":2,"sets":2`),
		"float":           replace(`"clk":1,`, `"clk":1.0,`),
		"uint overflow":   replace(`18446744073709551615`, `18446744073709551616`),
		"negative uint":   replace(`"clk":1,`, `"clk":-1,`),
		"int16 overflow":  replace(`32767`, `32768`),
		"leading zero":    replace(`"clk":1,`, `"clk":01,`),
		"bad base64":      replace(`"flags":"AAECAw=="`, `"flags":"AAECAw="`),
		"newline base64":  replace(`"flags":"AAECAw=="`, `"flags":"AAEC\nAw=="`),
		"minus zero":      replace(`"epoch_count":-4`, `"epoch_count":-0`),
		"null chip":       replace(`"chip":{`, `"chip":null,"x":{`),
		"truncated":       canon[:len(canon)/2],
		"trailing junk":   append(append([]byte{}, canon...), '}'),
		"empty":           nil,
		"null":            []byte("null"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if env, ok := DecodeCanonical(data); ok {
				var ref Envelope
				if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(env, &ref) {
					t.Fatalf("fast path accepted non-canonical input json.Unmarshal decodes differently (err %v)", err)
				}
				return
			}
			got, err := Decode(data)
			var ref Envelope
			jerr := json.Unmarshal(data, &ref)
			if jerr != nil {
				if err == nil || !strings.Contains(err.Error(), jerr.Error()) {
					t.Fatalf("Decode error %v, json.Unmarshal error %v", err, jerr)
				}
				return
			}
			if ref.SchemaVersion != Version || ref.Chip == nil {
				if err == nil {
					t.Fatal("Decode accepted an envelope without version or chip")
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, &ref) {
				t.Fatalf("fallback differs from json.Unmarshal (err %v)", err)
			}
		})
	}
}

func TestAppendUintMatchesStrconv(t *testing.T) {
	check := func(v uint64) {
		if got, want := string(appendUint([]byte("x"), v)), "x"+strconv.FormatUint(v, 10); got != want {
			t.Fatalf("appendUint(%d) = %s, want %s", v, got, want)
		}
	}
	for _, p := range pow10 {
		for _, v := range []uint64{p - 1, p, p + 1, p * 9, p*10 - 1} {
			check(v)
		}
	}
	check(math.MaxUint64)
	for v := uint64(1); v < math.MaxUint64/7; v = v*7 + 3 {
		check(v)
	}
}

func TestDecimalLen(t *testing.T) {
	for _, p := range pow10 {
		for _, v := range []uint64{p - 1, p, p + 1} {
			if got, want := decimalLen(v), len(strconv.FormatUint(v, 10)); got != want {
				t.Fatalf("decimalLen(%d) = %d, want %d", v, got, want)
			}
		}
	}
}
