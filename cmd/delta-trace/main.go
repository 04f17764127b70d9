// Command delta-trace runs one mix under every policy and prints a compact
// comparison plus DELTA's reconfiguration event trace — the tool used while
// developing and debugging the allocation dynamics (who expands where, who
// retreats, how much churn each decision causes).
//
//	delta-trace -mix w2
//	delta-trace -mix w13 -events 40
//	delta-trace -mix w2 -jsonl | jq 'select(.kind=="cede")'
//	delta-trace -mix w2 -timeline
//
// The merge subcommand k-way merges the columnar segment directories of
// several nodes (each a delta-served -telemetry-dir job directory) into one
// stream ordered by (job, tag, quantum), as NDJSON or CSV:
//
//	delta-trace merge node-a/jobdir node-b/jobdir
//	delta-trace merge -res 10 -from 1000000 -csv node-*/jobdir
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"delta/internal/experiments"
	"delta/internal/metrics"
	"delta/internal/telemetry"
	"delta/internal/telemetry/columnar"
	"delta/internal/version"
	"delta/internal/workloads"
)

func main() {
	// Subcommands dispatch before flag parsing ("delta-trace merge <dirs>").
	if len(os.Args) > 1 && os.Args[1] == "merge" {
		if err := runMerge(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "delta-trace merge:", err)
			os.Exit(1)
		}
		return
	}
	mixName := flag.String("mix", "w2", "Table IV mix")
	cores := flag.Int("cores", 16, "core count")
	events := flag.Int("events", 20, "max reconfiguration events to print")
	util := flag.Bool("util", false, "print the per-bank utilization map")
	jsonl := flag.Bool("jsonl", false, "stream the DELTA run's telemetry as JSONL on stdout (suppresses tables)")
	timeline := flag.Bool("timeline", false, "print the DELTA run's per-quantum sampled series (suppresses tables)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("delta-trace", version.String())
		return
	}

	sc := experiments.DefaultScale()
	if *cores > 16 {
		sc = sc.For64()
	}
	mix := workloads.MixByName(*mixName)

	if *jsonl {
		rec := telemetry.NewJSONL(os.Stdout)
		sc.Recorder = rec
		sc.RunMix("delta", mix, *cores)
		if err := rec.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "delta-trace:", err)
			os.Exit(1)
		}
		return
	}
	if *timeline {
		rec := telemetry.NewMemory(0)
		sc.Recorder = rec
		sc.RunMix("delta", mix, *cores)
		printTimeline(rec, *cores)
		return
	}

	t := metrics.NewTable(fmt.Sprintf("%s on %d cores", *mixName, *cores),
		"policy", "geomean IPC", "vs s-nuca", "ctrl msg %", "inval lines")
	base := 0.0
	var deltaRun experiments.MixRun
	reconf := reconfigRecorder{telemetry.NewMemory(0)}
	for _, pol := range experiments.PaperPolicies {
		s := sc
		if pol == "delta" {
			s.Recorder = reconf
		}
		run := s.RunMix(pol, mix, *cores)
		geo := metrics.GeoMean(run.IPCs())
		if pol == "snuca" {
			base = geo
		}
		if pol == "delta" {
			deltaRun = run
		}
		t.AddRow(pol,
			fmt.Sprintf("%.4f", geo),
			fmt.Sprintf("%+.1f%%", (geo/base-1)*100),
			fmt.Sprintf("%.3f", run.Net.ControlFraction()*100),
			fmt.Sprint(run.Chip.InvalLines))
	}
	fmt.Println(t.String())

	fmt.Printf("DELTA: %+v\n\n", deltaRun.Delta)
	slots := mix.Slots(*cores)
	fmt.Println("final allocations:")
	for i, w := range deltaRun.Ways {
		if w != 16 {
			fmt.Printf("  core %2d (%-10s) %3d ways\n", i, slots[i].Name, int(w))
		}
	}
	if *util {
		fmt.Println(deltaRun.Utilization)
		tr := deltaRun.Traffic
		fmt.Printf("traffic: %d LLC accesses, %d memory fetches, %.1f%% local hits, avg MCU queue %.1f cy\n\n",
			tr.LLCAccesses, tr.MemFetches,
			100*float64(tr.LocalHits)/float64(tr.LocalHits+tr.RemoteHits), tr.AvgQueueDelay)
	}
	fmt.Printf("\nfirst %d reconfiguration events:\n", *events)
	if n := reconf.DroppedEvents(); n > 0 {
		fmt.Printf("  (the ring dropped the %d earliest)\n", n)
	}
	for i, ev := range reconf.Events() {
		if i >= *events {
			break
		}
		// Report the core whose allocation grew (or, for a retreat, shrank).
		core := ev.Core
		if ev.Kind == telemetry.KindCede || ev.Kind == telemetry.KindIdleGrant {
			core = ev.Peer
		}
		fmt.Printf("  @%-9d %-13s core %2d (%-10s) bank %2d ways %d\n",
			ev.Cycle, ev.Kind, core, slots[core].Name, ev.Bank, ev.Ways)
	}
}

// reconfigRecorder keeps only DELTA's reconfiguration events (cedes, idle
// grants, intra-bank shifts and retreats) in its ring, so the ring's
// capacity goes to the events delta-trace lists, not to challenges and
// remaps.
type reconfigRecorder struct{ *telemetry.Memory }

// Event implements telemetry.Recorder.
func (r reconfigRecorder) Event(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindCede, telemetry.KindIdleGrant, telemetry.KindIntraShift, telemetry.KindRetreat:
		r.Memory.Event(ev)
	}
}

// runMerge implements the merge subcommand: k-way merge the given segment
// directories into one (job, tag, cycle, tile)-ordered stream on stdout.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	from := fs.Uint64("from", 0, "first cycle, inclusive")
	to := fs.Uint64("to", 0, "last cycle, inclusive (0 = unbounded)")
	res := fs.Int("res", 1, "resolution factor: 1 (raw), 10 or 100; tiers without data fall back to finer ones")
	tags := fs.String("tags", "", "comma-separated emitter tags to keep (default all)")
	asCSV := fs.Bool("csv", false, "emit CSV instead of NDJSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: delta-trace merge [flags] <segment-dir> [<segment-dir>...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		fs.Usage()
		return fmt.Errorf("no segment directories given")
	}
	if _, err := columnar.TierOf(*res); err != nil {
		return err
	}
	q := columnar.Query{From: *from, To: *to, Res: *res}
	if *tags != "" {
		q.Tags = strings.Split(*tags, ",")
	}

	var emit func(columnar.Row) bool
	var finish func() error
	if *asCSV {
		cw := csv.NewWriter(os.Stdout)
		if err := cw.Write([]string{"job", "tag", "res", "cycle", "tile",
			"ipc", "mpki", "fill", "hit_rate", "noc_util", "mcu_queue"}); err != nil {
			return err
		}
		var werr error
		emit = func(r columnar.Row) bool {
			werr = cw.Write([]string{
				r.Job, r.Tag, strconv.Itoa(r.Res),
				strconv.FormatUint(r.Cycle, 10), strconv.Itoa(r.Tile),
				fmtFloat(r.IPC), fmtFloat(r.MPKI), fmtFloat(r.BankFill),
				fmtFloat(r.BankHitRate), fmtFloat(r.NoCLinkUtil), fmtFloat(r.MCUQueue),
			})
			return werr == nil
		}
		finish = func() error {
			cw.Flush()
			if werr != nil {
				return werr
			}
			return cw.Error()
		}
	} else {
		enc := json.NewEncoder(os.Stdout)
		var werr error
		emit = func(r columnar.Row) bool {
			werr = enc.Encode(r)
			return werr == nil
		}
		finish = func() error { return werr }
	}
	if err := columnar.Merge(dirs, q, emit); err != nil {
		return err
	}
	return finish()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printTimeline renders the sampled series: per sample window, the mean of
// the per-tile points plus the chip-wide NoC/MCU point, then an event-count
// summary.
func printTimeline(rec *telemetry.Memory, cores int) {
	type window struct {
		ipc, mpki, fill, hit float64
		tiles                int
		nocUtil, mcuQueue    float64
	}
	windows := map[uint64]*window{}
	var order []uint64
	for _, s := range rec.Samples() {
		w := windows[s.Cycle]
		if w == nil {
			w = &window{}
			windows[s.Cycle] = w
			order = append(order, s.Cycle)
		}
		if s.Tile == telemetry.ChipWide {
			w.nocUtil = s.NoCLinkUtil
			w.mcuQueue = s.MCUQueue
		} else {
			w.ipc += s.IPC
			w.mpki += s.MPKI
			w.fill += s.BankFill
			w.hit += s.BankHitRate
			w.tiles++
		}
	}
	t := metrics.NewTable(fmt.Sprintf("sampled series (%d cores)", cores),
		"cycle", "mean IPC", "mean MPKI", "mean fill", "mean hit%", "NoC util", "MCU queue")
	for _, cy := range order {
		w := windows[cy]
		n := float64(w.tiles)
		if n == 0 {
			n = 1
		}
		t.AddRow(fmt.Sprint(cy),
			fmt.Sprintf("%.3f", w.ipc/n),
			fmt.Sprintf("%.1f", w.mpki/n),
			fmt.Sprintf("%.3f", w.fill/n),
			fmt.Sprintf("%.1f", 100*w.hit/n),
			fmt.Sprintf("%.4f", w.nocUtil),
			fmt.Sprintf("%.2f", w.mcuQueue))
	}
	fmt.Println(t.String())
	fmt.Println("events:")
	for _, k := range []telemetry.EventKind{
		telemetry.KindChallenge, telemetry.KindChallengeResult,
		telemetry.KindCede, telemetry.KindIdleGrant, telemetry.KindIntraShift,
		telemetry.KindRetreat, telemetry.KindRemap, telemetry.KindAlloc,
	} {
		if n := len(rec.EventsOfKind(k)); n > 0 {
			fmt.Printf("  %-16s %d\n", k, n)
		}
	}
	if d := rec.DroppedEvents(); d > 0 {
		fmt.Printf("  (%d events dropped by the ring buffer)\n", d)
	}
}
