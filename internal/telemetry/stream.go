package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// Stream writes telemetry to an io.Writer as it arrives: events and samples
// immediately (one line each), counters and gauges accumulated and emitted
// sorted by name on Flush. Field order and float formatting are
// deterministic, so identical runs produce byte-identical output (modulo
// wall-clock Nanos on alloc events).
//
// JSONL schema (absent fields are zero; every line is a complete JSON
// object):
//
//	{"kind":"challenge","cycle":80000,"core":3,"bank":2,"gain_to":1.25}
//	{"kind":"quantum-sample","cycle":16000,"tile":0,"ipc":0.51,"mpki":12.4,"fill":0.92,"hit_rate":0.63}
//	{"kind":"quantum-sample","cycle":16000,"tile":-1,"noc_util":0.0413,"mcu_queue":0.27}
//	{"kind":"counter","name":"core.challenges_sent","value":197}
//	{"kind":"gauge","name":"bank03.fill","value":0.971}
type Stream struct {
	w        *bufio.Writer
	counters map[string]uint64
	gauges   map[string]float64
	lines    uint64
	err      error
}

// NewJSONL builds a JSONL stream recorder over w.
func NewJSONL(w io.Writer) *Stream {
	return &Stream{
		w:        bufio.NewWriter(w),
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
	}
}

// Lines returns the number of lines written so far.
func (s *Stream) Lines() uint64 { return s.lines }

// Event implements Recorder.
func (s *Stream) Event(ev Event) {
	b := make([]byte, 0, 160)
	b = append(b, `{"kind":"`...)
	b = append(b, ev.Kind.String()...)
	if ev.Tag != "" {
		b = append(b, `","tag":"`...)
		b = append(b, ev.Tag...)
	}
	b = append(b, `","cycle":`...)
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(ev.Core), 10)
	b = append(b, `,"bank":`...)
	b = strconv.AppendInt(b, int64(ev.Bank), 10)
	if ev.Peer != 0 {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(ev.Peer), 10)
	}
	if ev.Ways != 0 {
		b = append(b, `,"ways":`...)
		b = strconv.AppendInt(b, int64(ev.Ways), 10)
	}
	if ev.Lines != 0 {
		b = append(b, `,"lines":`...)
		b = strconv.AppendInt(b, int64(ev.Lines), 10)
	}
	if ev.Kind == KindChallengeResult {
		b = append(b, `,"won":`...)
		b = strconv.AppendBool(b, ev.Won)
	}
	if ev.GainFrom != 0 {
		b = append(b, `,"gain_from":`...)
		b = appendJSONFloat(b, ev.GainFrom)
	}
	if ev.GainTo != 0 {
		b = append(b, `,"gain_to":`...)
		b = appendJSONFloat(b, ev.GainTo)
	}
	if ev.Nanos != 0 {
		b = append(b, `,"nanos":`...)
		b = strconv.AppendInt(b, ev.Nanos, 10)
	}
	b = append(b, '}')
	s.writeLine(string(b))
}

// Sample implements Recorder; samples go out as "quantum-sample" records.
func (s *Stream) Sample(sm Sample) {
	b := make([]byte, 0, 160)
	b = append(b, `{"kind":"quantum-sample"`...)
	if sm.Tag != "" {
		b = append(b, `,"tag":"`...)
		b = append(b, sm.Tag...)
		b = append(b, '"')
	}
	b = append(b, `,"cycle":`...)
	b = strconv.AppendUint(b, sm.Cycle, 10)
	b = append(b, `,"tile":`...)
	b = strconv.AppendInt(b, int64(sm.Tile), 10)
	if sm.Tile == ChipWide {
		b = append(b, `,"noc_util":`...)
		b = appendJSONFloat(b, sm.NoCLinkUtil)
		b = append(b, `,"mcu_queue":`...)
		b = appendJSONFloat(b, sm.MCUQueue)
	} else {
		b = append(b, `,"ipc":`...)
		b = appendJSONFloat(b, sm.IPC)
		b = append(b, `,"mpki":`...)
		b = appendJSONFloat(b, sm.MPKI)
		b = append(b, `,"fill":`...)
		b = appendJSONFloat(b, sm.BankFill)
		b = append(b, `,"hit_rate":`...)
		b = appendJSONFloat(b, sm.BankHitRate)
	}
	b = append(b, '}')
	s.writeLine(string(b))
}

// Count implements Recorder; totals are emitted on Flush.
func (s *Stream) Count(name string, delta uint64) { s.counters[name] += delta }

// Gauge implements Recorder; final values are emitted on Flush.
func (s *Stream) Gauge(name string, v float64) { s.gauges[name] = v }

// Flush implements Recorder: counters and gauges go out sorted by name, then
// the underlying writer is flushed. Flush may be called repeatedly; counter
// and gauge state is cleared once written.
func (s *Stream) Flush() error {
	for _, name := range sortedKeys(s.counters) {
		s.writeLine(`{"kind":"counter","name":"` + name + `","value":` +
			strconv.FormatUint(s.counters[name], 10) + `}`)
	}
	for _, name := range sortedKeys(s.gauges) {
		v := string(appendJSONFloat(nil, s.gauges[name]))
		s.writeLine(`{"kind":"gauge","name":"` + name + `","value":` + v + `}`)
	}
	s.counters = make(map[string]uint64)
	s.gauges = make(map[string]float64)
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

func (s *Stream) writeLine(line string) {
	if s.err != nil {
		return
	}
	if _, err := s.w.WriteString(line); err != nil {
		s.err = err
		return
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
		return
	}
	s.lines++
}

// appendJSONFloat formats a float as a valid JSON number. JSON has no
// Inf/NaN; those encode as 0 (they only arise from degenerate windows, e.g.
// a zero-instruction sample).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
