package snapshot

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// The canonical form is exactly what encoding/json's Marshal produces for an
// Envelope: fields in declaration order, no whitespace, omitempty fields
// absent when empty, nil slices as null, []byte as standard base64. Encode
// writes it by hand for the bulk of the document (tiles, caches, UMON
// stacks) and hands the small remaining values (config, workloads, policy,
// events, NoC, memory, generator cursors, ...) to encoding/json, so the
// bytes are identical to json.Marshal's.
//
// DecodeCanonical is the matching one-pass parser. It accepts only that
// form — exact keys in declaration order, no whitespace, no escapes in the
// strings it reads itself — and reports ok=false on anything else; Decode
// then falls back to json.Unmarshal, which stays the reference for every
// input. Whatever DecodeCanonical does accept decodes to the value
// json.Unmarshal would produce.

// encoder appends the canonical form to buf. Keys are written together with
// their leading punctuation ({"k": or ,"k":), mirroring the JSON layout.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) key(k string)            { e.buf = append(e.buf, k...) }
func (e *encoder) uint(k string, v uint64) { e.key(k); e.buf = strconv.AppendUint(e.buf, v, 10) }
func (e *encoder) int(k string, v int)     { e.key(k); e.buf = strconv.AppendInt(e.buf, int64(v), 10) }
func (e *encoder) bool(k string, v bool)   { e.key(k); e.buf = strconv.AppendBool(e.buf, v) }

// value marshals v with encoding/json.
func (e *encoder) value(k string, v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.key(k)
	e.buf = append(e.buf, b...)
}

func (e *encoder) uints(k string, vs []uint64) {
	e.key(k)
	if vs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	b := append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUint(b, v)
	}
	e.buf = append(b, ']')
}

func (e *encoder) int16s(k string, vs []int16) {
	e.key(k)
	if vs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	b := append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		if v >= 0 {
			b = appendUint(b, uint64(v))
		} else {
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	e.buf = append(b, ']')
}

func (e *encoder) bytes(k string, b []byte) {
	e.key(k)
	if b == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '"')
	e.buf = base64.StdEncoding.AppendEncode(e.buf, b)
	e.buf = append(e.buf, '"')
}

func (e *encoder) envelope(env *Envelope) {
	e.int(`{"schema_version":`, Version)
	e.value(`,"kind":`, env.Kind)
	if len(env.Config) > 0 {
		e.value(`,"config":`, env.Config)
	}
	if env.Workloads != nil {
		e.value(`,"workloads":`, env.Workloads)
	}
	e.key(`,"chip":`)
	if env.Chip == nil {
		e.key("null")
	} else {
		e.chip(env.Chip)
	}
	e.key("}")
}

func (e *encoder) chip(c *Chip) {
	e.uint(`{"now":`, c.Now)
	e.key(`,"tiles":`)
	if c.Tiles == nil {
		e.key("null")
	} else {
		e.key("[")
		for i := range c.Tiles {
			if i > 0 {
				e.key(",")
			}
			e.tile(&c.Tiles[i])
		}
		e.key("]")
	}
	if len(c.Events) > 0 {
		e.value(`,"events":`, c.Events)
	}
	e.value(`,"policy":`, &c.Policy)
	e.value(`,"noc":`, &c.NoC)
	e.value(`,"mem":`, &c.Mem)
	if c.Classifier != nil {
		e.value(`,"classifier":`, c.Classifier)
	}
	if c.Sampler != nil {
		e.value(`,"sampler":`, c.Sampler)
	}
	e.value(`,"stats":`, &c.Stats)
	if len(c.Departed) > 0 {
		e.value(`,"departed":`, c.Departed)
	}
	e.key("}")
}

func (e *encoder) tile(t *Tile) {
	e.key(`{"core":`)
	e.cpu(&t.Core)
	e.key(`,"l1":`)
	e.cache(&t.L1)
	e.key(`,"l2":`)
	e.cache(&t.L2)
	e.key(`,"llc":`)
	e.cache(&t.LLC)
	e.key(`,"mon":`)
	e.umon(&t.Mon)
	if t.Gen != nil {
		e.value(`,"gen":`, t.Gen)
	}
	e.uint(`,"base":`, t.Base)
	e.uint(`,"llc_accesses":`, t.LLCAccesses)
	e.uint(`,"llc_remote_hits":`, t.LLCRemoteHits)
	e.uint(`,"llc_local_hits":`, t.LLCLocalHits)
	e.uint(`,"mem_fetches":`, t.MemFetches)
	e.bool(`,"warmed":`, t.Warmed)
	e.uint(`,"start_cycle":`, t.StartCycle)
	e.uint(`,"start_instr":`, t.StartInstr)
	e.uint(`,"start_llc_acc":`, t.StartLLCAcc)
	e.uint(`,"start_mem_f":`, t.StartMemF)
	e.uint(`,"done_cycle":`, t.DoneCycle)
	e.uint(`,"done_instr":`, t.DoneInstr)
	e.uint(`,"done_llc_acc":`, t.DoneLLCAcc)
	e.uint(`,"done_mem_f":`, t.DoneMemF)
	e.uint(`,"last_llc_accesses":`, t.LastLLCAccesses)
	e.int(`,"idle_streak":`, t.IdleStreak)
	if t.LocalHitsBase != 0 {
		e.uint(`,"local_hits_base":`, t.LocalHitsBase)
	}
	if t.RemoteHitsBase != 0 {
		e.uint(`,"remote_hits_base":`, t.RemoteHitsBase)
	}
	if t.WarmBase != 0 {
		e.uint(`,"warm_base":`, t.WarmBase)
	}
	if t.RatePct != 0 {
		e.int(`,"rate_pct":`, t.RatePct)
	}
	if t.ThrottlePct != 0 {
		e.int(`,"throttle_pct":`, t.ThrottlePct)
	}
	e.uint(`,"samp_instr":`, t.SampInstr)
	e.uint(`,"samp_cycle":`, t.SampCycle)
	e.uint(`,"samp_llc_acc":`, t.SampLLCAcc)
	e.uint(`,"samp_bank_acc":`, t.SampBankAcc)
	e.uint(`,"samp_bank_hits":`, t.SampBankHits)
	e.key("}")
}

func (e *encoder) cpu(c *CPU) {
	e.uint(`{"cycle":`, c.Cycle)
	e.uint(`,"dispatch_q":`, c.DispatchQ)
	e.bool(`,"epoch_open":`, c.EpochOpen)
	e.uint(`,"epoch_end":`, c.EpochEnd)
	e.int(`,"epoch_count":`, c.EpochCount)
	e.uint(`,"epoch_instr":`, c.EpochInstr)
	e.key(`,"stats":`)
	e.cpuStats(&c.Stats)
	e.key(`,"last":`)
	e.cpuStats(&c.Last)
	e.key("}")
}

func (e *encoder) cpuStats(s *CPUStats) {
	e.uint(`{"instructions":`, s.Instructions)
	e.uint(`,"mem_accesses":`, s.MemAccesses)
	e.uint(`,"long_misses":`, s.LongMisses)
	e.uint(`,"epochs":`, s.Epochs)
	e.uint(`,"miss_lat_sum":`, s.MissLatSum)
	e.uint(`,"miss_stall":`, s.MissStall)
	e.key("}")
}

func (e *encoder) cache(c *Cache) {
	e.int(`{"sets":`, c.Sets)
	e.int(`,"ways":`, c.Ways)
	e.uint(`,"clk":`, c.Clk)
	e.uints(`,"addrs":`, c.Addrs)
	e.bytes(`,"flags":`, c.Flags)
	e.int16s(`,"owners":`, c.Owners)
	e.uints(`,"sharers":`, c.Sharers)
	e.uints(`,"used":`, c.Used)
	e.uints(`,"occupancy":`, c.Occupancy)
	s := &c.Stats
	e.uint(`,"stats":{"accesses":`, s.Accesses)
	e.uint(`,"hits":`, s.Hits)
	e.uint(`,"misses":`, s.Misses)
	e.uint(`,"evictions":`, s.Evictions)
	e.uint(`,"dirty_evicts":`, s.DirtyEvicts)
	e.uint(`,"invals":`, s.Invals)
	e.uint(`,"bulk_walks":`, s.BulkWalks)
	e.key("}}")
}

func (e *encoder) umon(m *Umon) {
	e.key(`{"stacks":`)
	if m.Stacks == nil {
		e.key("null")
	} else {
		e.key("[")
		for i, st := range m.Stacks {
			if i > 0 {
				e.key(",")
			}
			e.uints("", st)
		}
		e.key("]")
	}
	e.uints(`,"hits_bits":`, m.HitsBits)
	e.uint(`,"misses_bits":`, m.MissesBits)
	e.uint(`,"accesses_bits":`, m.AccessesBits)
	e.uints(`,"last_hits_bits":`, m.LastHitsBits)
	e.uint(`,"last_misses_bits":`, m.LastMissesBits)
	e.uint(`,"last_accesses_bits":`, m.LastAccessesBits)
	e.key("}")
}

// sizeHint estimates the encoded size, sampling every 17th element of the
// cache arrays (17 is coprime with the way count, so every way is sampled)
// and adding 1/8 slack, so the output buffer is almost always allocated
// once; an underestimate costs one regrowth, never a wrong result.
func sizeHint(env *Envelope) int {
	n := 16 << 10
	if env.Chip == nil {
		return n
	}
	n += len(env.Chip.Policy.State)
	for i := range env.Chip.Tiles {
		t := &env.Chip.Tiles[i]
		n += 2 << 10
		for _, c := range [...]*Cache{&t.L1, &t.L2, &t.LLC} {
			n += sampledLen(c.Addrs) + sampledLen(c.Sharers) + sampledLen(c.Used) + sampledLen(c.Occupancy)
			n += base64.StdEncoding.EncodedLen(len(c.Flags)) + 3*len(c.Owners)
		}
		for _, st := range t.Mon.Stacks {
			n += 2
			for _, v := range st {
				n += 1 + decimalLen(v)
			}
		}
	}
	return n * 9 / 8
}

// sampledLen estimates the encoded length of vs from every 17th element.
func sampledLen(vs []uint64) int {
	const stride = 17
	digits, k := 0, 0
	for i := 0; i < len(vs); i += stride {
		digits += decimalLen(vs[i])
		k++
	}
	if k == 0 {
		return 4
	}
	return 2 + len(vs) + digits*len(vs)/k
}

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12 // log10 estimate, at most one too low
	if v >= pow10[n] {
		n++
	}
	return max(n, 1)
}

// pow10[i] is 10^i.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

const digitPairs = "00010203040506070809" + "10111213141516171819" + "20212223242526272829" +
	"30313233343536373839" + "40414243444546474849" + "50515253545556575859" +
	"60616263646566676869" + "70717273747576777879" + "80818283848586878889" + "90919293949596979899"

// appendUint is strconv.AppendUint(b, v, 10) for the bulk arrays: the
// digits are written backwards in place, eight at a time in 32-bit
// arithmetic.
func appendUint(b []byte, v uint64) []byte {
	if v < 10 { // most slots of a cache array are empty
		return append(b, byte('0'+v))
	}
	n := decimalLen(v)
	if cap(b)-len(b) < n {
		b = slices.Grow(b, n)
	}
	i := len(b) + n
	b = b[:i]
	for v >= 1e8 {
		q := v / 1e8
		put8(b[i-8:i], uint32(v-q*1e8))
		i -= 8
		v = q
	}
	u := uint32(v)
	for u >= 100 {
		q := u / 100
		j := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[j], digitPairs[j+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// put8 writes u < 1e8 as exactly eight digits, zero-padded.
func put8(b []byte, u uint32) {
	_ = b[7]
	hi, lo := u/10000, u%10000
	for k, p := range [4]uint32{hi / 100, hi % 100, lo / 100, lo % 100} {
		b[2*k], b[2*k+1] = digitPairs[2*p], digitPairs[2*p+1]
	}
}

// decoder parses the canonical form. Once the input leaves it, ok turns
// false and every later call is a no-op returning zero values.
type decoder struct {
	data []byte
	pos  int
	ok   bool
}

// lit consumes s, which must come next.
func (d *decoder) lit(s string) {
	if d.ok && !d.opt(s) {
		d.ok = false
	}
}

// opt consumes s if it comes next and reports whether it did; it is how
// omitempty keys are read.
func (d *decoder) opt(s string) bool {
	if d.ok && len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

func (d *decoder) fail() { d.ok = false }

// uint parses a JSON number that fits a uint64: digits only, no leading
// zeros, no fraction or exponent (json.Unmarshal rejects those for integer
// fields; the fallback reports it).
func (d *decoder) uint() uint64 {
	if !d.ok {
		return 0
	}
	data, p := d.data, d.pos
	if p >= len(data) || data[p]-'0' > 9 {
		d.fail()
		return 0
	}
	v := uint64(data[p] - '0')
	p++
	if v != 0 {
		for ; p < len(data); p++ {
			c := data[p] - '0'
			if c > 9 {
				break
			}
			if v > math.MaxUint64/10 || v == math.MaxUint64/10 && c > math.MaxUint64%10 {
				d.fail()
				return 0
			}
			v = v*10 + uint64(c)
		}
	}
	d.pos = p
	return v
}

// int parses a JSON integer within [min, max].
func (d *decoder) int(min, max int64) int64 {
	neg := d.opt("-")
	u := d.uint()
	if u > math.MaxInt64 {
		d.fail()
		return 0
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if v < min || v > max {
		d.fail()
		return 0
	}
	return v
}

func (d *decoder) intv() int { return int(d.int(math.MinInt, math.MaxInt)) }

func (d *decoder) bool() bool {
	if d.opt("true") {
		return true
	}
	d.lit("false")
	return false
}

// count returns the number of elements of the flat array starting at pos
// (just past its '['), counting the commas before the first ']'. The
// element parsers verify the layout it assumes.
func (d *decoder) count() int {
	rest := d.data[d.pos:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		d.fail()
		return 0
	}
	return bytes.Count(rest[:end], []byte{','}) + 1
}

// sep consumes the separator after element i of n.
func (d *decoder) sep(i, n int) {
	if i < n-1 {
		d.lit(",")
	} else {
		d.lit("]")
	}
}

func (d *decoder) uints() []uint64 {
	if d.opt("null") {
		return nil
	}
	d.lit("[")
	if !d.ok {
		return nil
	}
	if d.opt("]") {
		return []uint64{}
	}
	out := make([]uint64, d.count())
	for i := range out {
		out[i] = d.uint()
		d.sep(i, len(out))
	}
	return out
}

func (d *decoder) int16s() []int16 {
	if d.opt("null") {
		return nil
	}
	d.lit("[")
	if !d.ok {
		return nil
	}
	if d.opt("]") {
		return []int16{}
	}
	out := make([]int16, d.count())
	for i := range out {
		out[i] = int16(d.int(math.MinInt16, math.MaxInt16))
		d.sep(i, len(out))
	}
	return out
}

// bytes decodes a base64 string exactly as json.Unmarshal does for []byte.
// Escapes and control characters leave the canonical form: base64 would
// skip a raw \r or \n that JSON itself rejects.
func (d *decoder) bytes() []byte {
	if d.opt("null") {
		return nil
	}
	s := d.str()
	if !d.ok {
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		d.fail()
		return nil
	}
	return b[:n]
}

// str returns the contents of a string literal made of ASCII without
// escapes or control characters; anything else leaves the canonical form.
func (d *decoder) str() []byte {
	d.lit(`"`)
	if !d.ok {
		return nil
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			d.fail()
			return nil
		}
	}
	d.fail()
	return nil
}

// value decodes the next JSON value into v with encoding/json.
func (d *decoder) value(v any) {
	if !d.ok {
		return
	}
	end, ok := skipValue(d.data, d.pos)
	if !ok || json.Unmarshal(d.data[d.pos:end], v) != nil {
		d.fail()
		return
	}
	d.pos = end
}

// skipValue returns the end of the JSON value starting at p: past the
// bracket closing a composite value or string, or at the ',', '}' or ']'
// ending a scalar. It only tracks strings and nesting; the caller's
// json.Unmarshal validates the slice.
func skipValue(data []byte, p int) (int, bool) {
	depth := 0
	for p < len(data) {
		switch data[p] {
		case '"':
			for p++; ; p++ {
				if p >= len(data) {
					return 0, false
				}
				if data[p] == '\\' {
					p++
				} else if data[p] == '"' {
					break
				}
			}
			if depth == 0 {
				return p + 1, true
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return p, true
			}
			if depth--; depth == 0 {
				return p + 1, true
			}
		case ',':
			if depth == 0 {
				return p, true
			}
		}
		p++
	}
	return 0, false
}

func (d *decoder) envelope() *Envelope {
	env := &Envelope{}
	d.lit(`{"schema_version":`)
	env.SchemaVersion = d.intv()
	d.lit(`,"kind":`)
	d.value(&env.Kind)
	if d.opt(`,"config":`) {
		d.value(&env.Config)
	}
	if d.opt(`,"workloads":`) {
		d.value(&env.Workloads)
	}
	d.lit(`,"chip":`)
	if !d.opt("null") {
		env.Chip = d.chip()
	}
	d.lit("}")
	if d.ok && d.pos != len(d.data) {
		d.fail()
	}
	return env
}

func (d *decoder) chip() *Chip {
	c := &Chip{}
	d.lit(`{"now":`)
	c.Now = d.uint()
	d.lit(`,"tiles":`)
	if !d.opt("null") {
		d.lit("[")
		c.Tiles = []Tile{}
		for first := true; d.ok && !d.opt("]"); first = false {
			if !first {
				d.lit(",")
			}
			c.Tiles = append(c.Tiles, Tile{})
			d.tile(&c.Tiles[len(c.Tiles)-1])
		}
	}
	if d.opt(`,"events":`) {
		d.value(&c.Events)
	}
	d.lit(`,"policy":`)
	d.value(&c.Policy)
	d.lit(`,"noc":`)
	d.value(&c.NoC)
	d.lit(`,"mem":`)
	d.value(&c.Mem)
	if d.opt(`,"classifier":`) {
		d.value(&c.Classifier)
	}
	if d.opt(`,"sampler":`) {
		d.value(&c.Sampler)
	}
	d.lit(`,"stats":`)
	d.value(&c.Stats)
	if d.opt(`,"departed":`) {
		d.value(&c.Departed)
	}
	d.lit("}")
	return c
}

func (d *decoder) tile(t *Tile) {
	d.lit(`{"core":`)
	d.cpu(&t.Core)
	d.lit(`,"l1":`)
	d.cache(&t.L1)
	d.lit(`,"l2":`)
	d.cache(&t.L2)
	d.lit(`,"llc":`)
	d.cache(&t.LLC)
	d.lit(`,"mon":`)
	d.umon(&t.Mon)
	if d.opt(`,"gen":`) {
		d.value(&t.Gen)
	}
	d.lit(`,"base":`)
	t.Base = d.uint()
	d.lit(`,"llc_accesses":`)
	t.LLCAccesses = d.uint()
	d.lit(`,"llc_remote_hits":`)
	t.LLCRemoteHits = d.uint()
	d.lit(`,"llc_local_hits":`)
	t.LLCLocalHits = d.uint()
	d.lit(`,"mem_fetches":`)
	t.MemFetches = d.uint()
	d.lit(`,"warmed":`)
	t.Warmed = d.bool()
	d.lit(`,"start_cycle":`)
	t.StartCycle = d.uint()
	d.lit(`,"start_instr":`)
	t.StartInstr = d.uint()
	d.lit(`,"start_llc_acc":`)
	t.StartLLCAcc = d.uint()
	d.lit(`,"start_mem_f":`)
	t.StartMemF = d.uint()
	d.lit(`,"done_cycle":`)
	t.DoneCycle = d.uint()
	d.lit(`,"done_instr":`)
	t.DoneInstr = d.uint()
	d.lit(`,"done_llc_acc":`)
	t.DoneLLCAcc = d.uint()
	d.lit(`,"done_mem_f":`)
	t.DoneMemF = d.uint()
	d.lit(`,"last_llc_accesses":`)
	t.LastLLCAccesses = d.uint()
	d.lit(`,"idle_streak":`)
	t.IdleStreak = d.intv()
	if d.opt(`,"local_hits_base":`) {
		t.LocalHitsBase = d.uint()
	}
	if d.opt(`,"remote_hits_base":`) {
		t.RemoteHitsBase = d.uint()
	}
	if d.opt(`,"warm_base":`) {
		t.WarmBase = d.uint()
	}
	if d.opt(`,"rate_pct":`) {
		t.RatePct = d.intv()
	}
	if d.opt(`,"throttle_pct":`) {
		t.ThrottlePct = d.intv()
	}
	d.lit(`,"samp_instr":`)
	t.SampInstr = d.uint()
	d.lit(`,"samp_cycle":`)
	t.SampCycle = d.uint()
	d.lit(`,"samp_llc_acc":`)
	t.SampLLCAcc = d.uint()
	d.lit(`,"samp_bank_acc":`)
	t.SampBankAcc = d.uint()
	d.lit(`,"samp_bank_hits":`)
	t.SampBankHits = d.uint()
	d.lit("}")
}

func (d *decoder) cpu(c *CPU) {
	d.lit(`{"cycle":`)
	c.Cycle = d.uint()
	d.lit(`,"dispatch_q":`)
	c.DispatchQ = d.uint()
	d.lit(`,"epoch_open":`)
	c.EpochOpen = d.bool()
	d.lit(`,"epoch_end":`)
	c.EpochEnd = d.uint()
	d.lit(`,"epoch_count":`)
	c.EpochCount = d.intv()
	d.lit(`,"epoch_instr":`)
	c.EpochInstr = d.uint()
	d.lit(`,"stats":`)
	d.cpuStats(&c.Stats)
	d.lit(`,"last":`)
	d.cpuStats(&c.Last)
	d.lit("}")
}

func (d *decoder) cpuStats(s *CPUStats) {
	d.lit(`{"instructions":`)
	s.Instructions = d.uint()
	d.lit(`,"mem_accesses":`)
	s.MemAccesses = d.uint()
	d.lit(`,"long_misses":`)
	s.LongMisses = d.uint()
	d.lit(`,"epochs":`)
	s.Epochs = d.uint()
	d.lit(`,"miss_lat_sum":`)
	s.MissLatSum = d.uint()
	d.lit(`,"miss_stall":`)
	s.MissStall = d.uint()
	d.lit("}")
}

func (d *decoder) cache(c *Cache) {
	d.lit(`{"sets":`)
	c.Sets = d.intv()
	d.lit(`,"ways":`)
	c.Ways = d.intv()
	d.lit(`,"clk":`)
	c.Clk = d.uint()
	d.lit(`,"addrs":`)
	c.Addrs = d.uints()
	d.lit(`,"flags":`)
	c.Flags = d.bytes()
	d.lit(`,"owners":`)
	c.Owners = d.int16s()
	d.lit(`,"sharers":`)
	c.Sharers = d.uints()
	d.lit(`,"used":`)
	c.Used = d.uints()
	d.lit(`,"occupancy":`)
	c.Occupancy = d.uints()
	s := &c.Stats
	d.lit(`,"stats":{"accesses":`)
	s.Accesses = d.uint()
	d.lit(`,"hits":`)
	s.Hits = d.uint()
	d.lit(`,"misses":`)
	s.Misses = d.uint()
	d.lit(`,"evictions":`)
	s.Evictions = d.uint()
	d.lit(`,"dirty_evicts":`)
	s.DirtyEvicts = d.uint()
	d.lit(`,"invals":`)
	s.Invals = d.uint()
	d.lit(`,"bulk_walks":`)
	s.BulkWalks = d.uint()
	d.lit("}}")
}

func (d *decoder) umon(m *Umon) {
	d.lit(`{"stacks":`)
	if !d.opt("null") {
		d.lit("[")
		m.Stacks = [][]uint64{}
		for first := true; d.ok && !d.opt("]"); first = false {
			if !first {
				d.lit(",")
			}
			m.Stacks = append(m.Stacks, d.uints())
		}
	}
	d.lit(`,"hits_bits":`)
	m.HitsBits = d.uints()
	d.lit(`,"misses_bits":`)
	m.MissesBits = d.uint()
	d.lit(`,"accesses_bits":`)
	m.AccessesBits = d.uint()
	d.lit(`,"last_hits_bits":`)
	m.LastHitsBits = d.uints()
	d.lit(`,"last_misses_bits":`)
	m.LastMissesBits = d.uint()
	d.lit(`,"last_accesses_bits":`)
	m.LastAccessesBits = d.uint()
	d.lit("}")
}
