// Command iwscan runs a TCP initial-window scan against the simulated
// Internet and streams per-target results to a pluggable output sink.
//
// It is the CLI face of the paper's methodology: a ZMap-style engine
// drives HTTP- or TLS-based IW probes (announcing a 64-byte MSS and
// withholding ACKs until the first retransmission) across the modelled
// IPv4 population, or across a synthetic Alexa-style popular-host list.
// Results stream through the output pipeline one record at a time — in
// permutation order, with O(buffer) memory — and long scans can be
// checkpointed and resumed without re-probing finished targets.
//
// Examples:
//
//	iwscan -strategy http -sample 0.01 -out http.csv
//	iwscan -strategy tls -sample 0.05 -format jsonl -out tls.jsonl
//	iwscan -sample 0.05 -format bin -out scan.iwb   # compact binary output
//	iwscan -strategy http -alexa 10000 -out alexa.csv
//	iwscan -strategy syn -sample 0.01          # plain port scan
//	iwscan -sample 0.0005 -pcap scan.pcap      # capture the packets too
//	iwscan -sample 0.001 -status-interval 1s   # live ZMap-style progress
//	iwscan -sample 0.01 -metrics-out m.json    # dump the telemetry snapshot
//	iwscan -sample 0.01 -retries 2             # re-probe timed-out targets twice
//
// Time-series telemetry (per-shard interval samples plus anomaly
// detection — stalls, retry storms, drop spikes, shard skew):
//
//	iwscan -sample 0.01 -telemetry-out scan.tsl            # JSONL stream
//	iwscan -sample 0.1 -parallel 4 -debug-addr :6060       # live /timeseries + /dash
//	iwscan -sample 0.01 -tail-loss 0.3 -telemetry-out t.tsl -status-interval 1s
//
// Forensics (per-probe flight recorder, see cmd/iwtrace to read records):
//
//	iwscan -sample 0.01 -loss 0.02 -flight-dir fr -flight-on ghost,byte-limit-misread
//	iwscan -sample 0.01 -tail-loss 0.3 -flight-dir fr -flight-on underestimate
//	iwscan -sample 0.01 -flight-dir fr -trace-host 10.4.7.23   # always record this host
//	iwscan -sample 0.1 -debug-addr localhost:6060              # live pprof//metrics//flight
//	iwscan -sample 0.01 -pcap scan.pcap -out /dev/null         # every packet; read with cmd/iwdump
//
// -pcap streams every packet the simulated network accepts, in send
// order, through the flight recorder's packet tap into one libpcap
// file, so a capture costs a write buffer however long the scan runs.
// A frozen record's .pcap sidecar holds that probe's slice of the same
// stream. Like the rest of the flight recorder, -pcap observes one
// simulation, so it applies to serial address-space scans only.
//
// Topology-aware smart scanning (prefix responsiveness model, hitlists):
//
//	iwscan -sample 0.01 -out full.csv -smart-model web.iwsm -smart-update  # full sweep, train model
//	iwscan -sample 0.01 -out smart.csv -smart-model web.iwsm               # hot prefixes first, dark pruned
//	iwscan -sample 0.01 -out s.csv -smart-model web.iwsm -smart-threshold 0.01 -smart-update
//	iwscan -out hit.csv -sample 1 -hitlist full.csv                        # probe only prior responders
//
// Checkpoint/resume (interruption-survivable scans):
//
//	iwscan -sample 0.5 -out big.csv -checkpoint big.ck        # checkpoint as it runs
//	iwscan -sample 0.5 -out big.csv -checkpoint big.ck -time-limit 1h  # stop early...
//	iwscan -sample 0.5 -out big.csv -resume big.ck            # ...and pick up where it left off
//
// A resumed scan cuts -out back to the length the checkpoint recorded
// (dropping records a crash left after it) and appends from there, so
// the file ends up holding exactly the record stream an uninterrupted
// scan would have written. The
// checkpoint's fingerprint guards against resuming with a different
// seed, strategy, sample fraction or blacklist.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"iwscan/internal/analysis"
	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/flight"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
	"iwscan/internal/scanner"
	"iwscan/internal/timeseries"
	"iwscan/internal/validate"
	"iwscan/internal/wire"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "iwscan: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		statusIv = flag.Duration("status-interval", 0, "print ZMap-style progress to stderr at this wall-clock interval (0 = off)")
		metOut   = flag.String("metrics-out", "", "write the final metrics-registry snapshot to this file (JSON; *.prom for Prometheus text)")
		strategy = flag.String("strategy", "http", "probe strategy: http, tls or syn")
		sample   = flag.Float64("sample", 0.01, "fraction of the address space to probe (0..1]")
		rate     = flag.Float64("rate", 10000, "probe launch rate per second of virtual time")
		seed     = flag.Uint64("seed", 2017, "scan seed (permutation, sampling, ISNs)")
		useed    = flag.Uint64("universe-seed", 2017, "universe seed (host population)")
		alexa    = flag.Int("alexa", 0, "scan the top-N popular-host list instead of the address space")
		loss     = flag.Float64("loss", 0, "network packet-loss probability")
		out      = flag.String("out", "", "output path (default stdout)")
		format   = flag.String("format", "csv", "output format: csv, jsonl or bin (length-prefixed binary)")
		pcap     = flag.String("pcap", "", "also write a packet capture of the scan (libpcap format)")
		shard    = flag.Uint64("shard", 0, "this instance's shard number (0-based)")
		shards   = flag.Uint64("shards", 0, "total shards the scan is split across (0 = unsharded)")
		blfile   = flag.String("blacklist", "", "ZMap-style blacklist file (one CIDR per line)")
		parallel = flag.Int("parallel", 1, "run the scan as N concurrent shards and merge the results")
		retries  = flag.Int("retries", 0, "re-launch unreachable probes up to N extra times before giving up")
		ckPath   = flag.String("checkpoint", "", "periodically write resumable scan state to this file")
		ckEvery  = flag.Duration("checkpoint-every", 10*time.Second, "virtual-time interval between checkpoints")
		resume   = flag.String("resume", "", "resume an interrupted scan from this checkpoint file (continues -out where the checkpoint left it)")
		tlimit   = flag.Duration("time-limit", 0, "stop the scan after this much virtual time, leaving a checkpoint (0 = run to completion)")
		quiet    = flag.Bool("q", false, "suppress the summary on stderr (also skips record retention for it: O(buffer) memory)")

		flightDir    = flag.String("flight-dir", "", "write frozen flight-recorder records (forensic probe timelines) to this directory")
		flightOn     = flag.String("flight-on", "", "comma-separated verdict names that freeze a forensic record (e.g. ghost,byte-limit-misread; 'all' records everything)")
		flightSample = flag.Float64("flight-sample", 0, "additionally freeze this deterministic fraction of all probes (0..1)")
		flightMax    = flag.Int("flight-max", 50, "stop writing records to -flight-dir after this many (0 = unlimited)")
		traceHost    = flag.String("trace-host", "", "comma-separated addresses whose probes are always frozen, whatever the verdict")
		debugAddr    = flag.String("debug-addr", "", "serve a live debug endpoint on this address (pprof, expvar, /metrics, /flight, /timeseries, /dash)")
		tailLoss     = flag.Float64("tail-loss", 0, "deterministic bursty tail-loss probability (drops trailing short segments)")
		reorderP     = flag.Float64("reorder", 0, "per-packet reordering probability on the path")
		telemOut     = flag.String("telemetry-out", "", "stream time-series telemetry to this file (JSONL, one line per interval sample or anomaly; appends under -resume)")
		telemIv      = flag.Duration("telemetry-interval", 0, "virtual-time cadence between telemetry samples (0 = 100ms default)")

		smartModel   = flag.String("smart-model", "", "responsiveness model file (IWSM1) enabling topology-aware -smart scanning; train it with -smart-update")
		smartThresh  = flag.Float64("smart-threshold", 0.02, "prune prefixes whose trained responsiveness ratio falls below this")
		smartExplore = flag.Float64("smart-explore", 0.05, "exploration floor: fraction of prunable prefixes still scanned (negative = none)")
		smartMinPr   = flag.Uint64("smart-min-probes", 1, "minimum observations before a /24 may be pruned")
		smartUpdate  = flag.Bool("smart-update", false, "after a completed scan, fold its results into -smart-model (creates the model if missing)")
		hitlist      = flag.String("hitlist", "", "seed targets from a prior scan's output file (csv, jsonl or iwb) instead of sweeping the space")
	)
	flag.Parse()

	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iwscan: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	if *sample <= 0 || *sample > 1 {
		fatalf("-sample %v out of range: want 0 < sample <= 1", *sample)
	}

	// Reject flag combinations that earlier versions resolved silently
	// (dropping -parallel under -pcap, overwriting user shard specs).
	userSharded, userSampled, smartFlagSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shard", "shards":
			userSharded = true
		case "sample":
			userSampled = true
		case "smart-threshold", "smart-explore", "smart-min-probes", "smart-update":
			smartFlagSet = true
		}
	})
	// A hitlist is already a curated target set: probe all of it unless
	// the user explicitly asked for a sub-sample. Leaving the address-
	// space default (1%) in force would silently skip 99% of the list.
	if *hitlist != "" && !userSampled {
		*sample = 1
	}
	flightEnabled := *flightDir != "" || *flightOn != "" || *traceHost != "" || *flightSample > 0
	if *parallel > 1 {
		if *pcap != "" {
			fatalf("-parallel and -pcap are incompatible (each shard runs its own simulation; there is no single packet stream to capture); drop one")
		}
		if userSharded {
			fatalf("-parallel assigns shard numbers itself and would overwrite -shard/-shards; use one mechanism or the other")
		}
		if *ckPath != "" || *resume != "" {
			fatalf("-checkpoint/-resume track one engine per process; distribute with -shard/-shards across separate runs instead of -parallel")
		}
		// Only the flight recorder genuinely requires serial mode (it
		// binds one simulation's observer slot). The debug server and the
		// telemetry store are shard-aware: each shard attaches its own
		// registry and sampler, and the endpoints serve the merged view.
		if flightEnabled {
			fatalf("the flight recorder observes one simulation; it is incompatible with -parallel (the shard-aware -debug-addr and -telemetry-out work fine)")
		}
	}
	if *alexa > 0 && (*ckPath != "" || *resume != "" || *tlimit > 0) {
		fatalf("-checkpoint/-resume/-time-limit apply to address-space scans, not -alexa list scans")
	}
	if *smartModel == "" && smartFlagSet {
		fatalf("-smart-threshold/-smart-explore/-smart-min-probes/-smart-update need -smart-model")
	}
	if *smartModel != "" && *hitlist != "" {
		fatalf("-smart-model and -hitlist are different target-selection modes; use one")
	}
	if *alexa > 0 && (*smartModel != "" || *hitlist != "") {
		fatalf("-smart-model/-hitlist apply to address-space scans, not -alexa list scans")
	}
	if *smartThresh <= 0 || *smartThresh >= 1 {
		fatalf("-smart-threshold %v out of range: want 0 < t < 1", *smartThresh)
	}
	if *smartExplore >= 1 {
		fatalf("-smart-explore %v out of range: want e < 1", *smartExplore)
	}
	if *alexa > 0 && (flightEnabled || *pcap != "" || *debugAddr != "" || *telemOut != "") {
		fatalf("the flight recorder, -pcap, -debug-addr and -telemetry-out apply to address-space scans, not -alexa list scans")
	}
	if *flightSample < 0 || *flightSample > 1 {
		fatalf("-flight-sample %v out of range: want 0 <= f <= 1", *flightSample)
	}
	if flightEnabled && *flightDir == "" && *debugAddr == "" {
		fatalf("flight recording needs somewhere to surface records: set -flight-dir (write files) or -debug-addr (serve /flight)")
	}

	// Build the flight recorder and open -pcap up front so configuration
	// errors (an unwritable directory or capture path, an unknown verdict
	// name) kill the run before any scanning happens, not after it. The
	// recorder is also the -pcap tap: it streams every packet the network
	// accepts into the capture, so -pcap alone builds one with no freeze
	// rule, which records nothing else.
	var fr *flight.Recorder
	var dbg *flight.DebugServer
	fcfg := flight.Config{
		Dir:        *flightDir,
		SampleRate: *flightSample,
		Seed:       *seed,
		MaxWrites:  *flightMax,
	}
	if flightEnabled {
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				fatalf("-flight-dir: %v", err)
			}
			// Create-or-fail before the scan: a read-only or quota-full
			// directory must not surface as silent record loss later.
			probe := filepath.Join(*flightDir, ".iwscan-writable")
			if err := os.WriteFile(probe, nil, 0o644); err != nil {
				fatalf("-flight-dir %s is not writable: %v", *flightDir, err)
			}
			os.Remove(probe)
		}
		if *flightOn != "" {
			valid := append(validate.VerdictNames(), "success", "few-data", "no-data", "error", "unreachable", "all")
			fcfg.Triggers = make(map[string]bool)
			for _, v := range strings.Split(*flightOn, ",") {
				v = strings.TrimSpace(v)
				if v == "" {
					continue
				}
				if !slices.Contains(valid, v) {
					fatalf("-flight-on: unknown verdict %q (valid: %s, plus outcome taxa and 'all')",
						v, strings.Join(validate.VerdictNames(), ", "))
				}
				fcfg.Triggers[v] = true
			}
		}
		if *traceHost != "" {
			fcfg.TraceHosts = make(map[wire.Addr]bool)
			for _, h := range strings.Split(*traceHost, ",") {
				h = strings.TrimSpace(h)
				if h == "" {
					continue
				}
				addr, err := wire.ParseAddr(h)
				if err != nil {
					fatalf("-trace-host: %v", err)
				}
				fcfg.TraceHosts[addr] = true
			}
		}
	}
	var pcapFile *os.File
	if *pcap != "" {
		if pcapFile, err = os.Create(*pcap); err != nil {
			fatalf("-pcap: %v", err)
		}
		fcfg.Pcap = flight.NewPcapWriter(pcapFile)
	}
	if flightEnabled || fcfg.Pcap != nil {
		fr = flight.NewRecorder(fcfg)
	}
	if *debugAddr != "" {
		dbg = flight.NewDebugServer()
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("-debug-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "iwscan: debug endpoint at http://%s/ (pprof, expvar, /metrics, /flight, /timeseries, /dash)\n", ln.Addr())
		go http.Serve(ln, dbg.Handler())
	}

	u := inet.NewInternet2017(*useed)

	var resumeSt *checkpoint.State
	if *resume != "" {
		if resumeSt, err = checkpoint.Load(*resume); err != nil {
			fatalf("%v", err)
		}
	}

	// Output sink: records stream through it as the scan runs. An async
	// stage decouples the simulation from file I/O; its bounded queue
	// pushes back instead of growing. On -resume, -out is spliced at the
	// length the checkpoint recorded, dropping whatever a crash after
	// that checkpoint left behind; stdout can only be appended to.
	var fileSink output.Sink
	switch {
	case *out == "":
		fileSink, err = output.NewFileSink(os.Stdout, *format, resumeSt != nil)
	case resumeSt == nil:
		fileSink, err = output.OpenFileSink(*out, *format, 0)
	case resumeSt.OutputBytes == nil:
		fatalf("-resume %s: %v", *resume, checkpoint.ErrNoOutputBytes)
	default:
		fileSink, err = output.OpenFileSink(*out, *format, *resumeSt.OutputBytes)
	}
	if err != nil {
		fatalf("%v", err)
	}
	sink := output.NewAsyncSink(fileSink, 4096)

	// Time-series telemetry: armed by -telemetry-out (JSONL stream) or
	// implicitly whenever the debug endpoint is up, so /timeseries and
	// /dash have data to serve.
	var ts *timeseries.Store
	var telemFile *os.File
	if *alexa == 0 && (*telemOut != "" || *telemIv > 0 || dbg != nil) {
		ts = timeseries.NewStore(timeseries.Config{Interval: netsim.Time(*telemIv)})
		if *telemOut != "" {
			tflags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
			if *resume != "" {
				tflags = os.O_WRONLY | os.O_CREATE | os.O_APPEND // stream stays valid across resumes
			}
			f, err := os.OpenFile(*telemOut, tflags, 0o644)
			if err != nil {
				fatalf("-telemetry-out: %v", err)
			}
			telemFile = f
			ts.StreamJSONL(f)
		}
	}

	var res *experiments.ScanResult
	var model *prefixtree.Model
	if *alexa > 0 {
		res = experiments.RunPopularScan(u, *alexa, strat, *seed)
		if err := output.WriteAll(sink, res.Records); err != nil {
			fatalf("writing records: %v", err)
		}
	} else {
		cfg := experiments.ScanConfig{
			Seed:               *seed,
			Strategy:           strat,
			SampleFraction:     *sample,
			Rate:               *rate,
			Loss:               *loss,
			Shard:              *shard,
			Shards:             *shards,
			MaxRetries:         *retries,
			StatusInterval:     *statusIv,
			Sink:               sink,
			KeepRecords:        !*quiet,
			CheckpointPath:     cmp.Or(*ckPath, *resume), // keep checkpointing a resumed run
			Resume:             resumeSt,
			CheckpointInterval: netsim.Time(*ckEvery),
			TimeLimit:          netsim.Time(*tlimit),
			Flight:             fr,
			Debug:              dbg,
			Timeseries:         ts,
		}
		if *smartUpdate && *out == "" {
			// Training re-reads -out after the scan; without a file the
			// in-memory records are the only training source.
			cfg.KeepRecords = true
		}
		if *statusIv > 0 {
			cfg.StatusOut = os.Stderr
		}
		if *blfile != "" {
			bf, err := os.Open(*blfile)
			if err != nil {
				fatalf("%v", err)
			}
			cfg.Blacklist, err = scanner.ParseBlacklist(bf)
			bf.Close()
			if err != nil {
				fatalf("%v", err)
			}
		}
		if *smartModel != "" {
			m, err := prefixtree.Load(*smartModel)
			switch {
			case err == nil:
				model = m
			case os.IsNotExist(err) && *smartUpdate:
				model = prefixtree.New() // first training run: full sweep, then save
			case os.IsNotExist(err):
				fatalf("-smart-model %s does not exist (train one with -smart-update)", *smartModel)
			default:
				fatalf("-smart-model: %v", err)
			}
			if model.Len() > 0 {
				explore := *smartExplore
				if explore <= 0 {
					explore = -1
				}
				plan := prefixtree.NewPlan(model, prefixtree.PlanConfig{
					Threshold: *smartThresh,
					Explore:   explore,
					MinProbes: *smartMinPr,
					Seed:      *seed,
				})
				cfg.Smart = plan
				if !*quiet {
					s := plan.Summary()
					fmt.Fprintf(os.Stderr,
						"smart: model %s (%d /24s known); plan: %d hot, %d cold, %d pruned /24s, %d pruned /16s, %d explored\n",
						plan.ModelHash(), model.Len(), s.Hot24, s.Cold24, s.Pruned24, s.Pruned16, s.Explored)
				}
			} else if !*quiet {
				fmt.Fprintf(os.Stderr, "smart: model %s is empty; running a full sweep to train it\n", *smartModel)
			}
		}
		if *hitlist != "" {
			recs, err := output.ReadRecordsFile(*hitlist)
			if err != nil {
				fatalf("-hitlist: %v", err)
			}
			cfg.Hitlist = prefixtree.Hitlist(recs)
			if len(cfg.Hitlist) == 0 {
				fatalf("-hitlist %s contains no responsive hosts", *hitlist)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "hitlist: %d responsive hosts from %s (of %d records)\n",
					len(cfg.Hitlist), *hitlist, len(recs))
			}
		}
		if *reorderP > 0 {
			// An explicit path replaces the default wholesale, so fold
			// the loss probability in rather than losing it.
			cfg.Path = &netsim.PathParams{
				Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond,
				Loss: *loss, Reorder: *reorderP,
			}
		}
		if *tailLoss > 0 {
			// A factory, not a shared instance: the filter keeps per-flow
			// state, and under -parallel each shard runs its own
			// simulation concurrently, so each must build its own copy.
			tlSeed, tlP := *seed, *tailLoss
			cfg.FilterFactories = append(cfg.FilterFactories, func() netsim.Filter {
				return netsim.TailLossFilter(tlSeed, tlP)
			})
		}
		if fcfg.Freezes() {
			// Join each record against the ground-truth oracle so the
			// trigger verdicts are the validate taxonomy, not just the
			// scan's own outcome taxa.
			oracle := validate.NewOracle(u, 64)
			cfg.FlightClassify = func(r *analysis.Record) (string, string) {
				t := oracle.TruthFor(*r)
				v := validate.Classify(t, r)
				detail := fmt.Sprintf(
					"oracle: live=%v expected-iw=%d byte-based=%v iw-bytes=%d; scan: outcome=%s iw=%d bound=%d byte-limited=%v",
					t.Live, t.Expected, t.ByteBased, t.IWBytes,
					r.Outcome, r.IW, r.LowerBound, r.ByteLimited)
				return v.String(), detail
			}
		}
		if *parallel > 1 {
			res, err = experiments.RunScanParallelChecked(u, cfg, *parallel)
		} else {
			res, err = experiments.RunScanChecked(u, cfg)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}

	// Drain the async queue, then flush, fsync and close -out, checking
	// the error: a full disk is often only reported here.
	if err := sink.Close(); err != nil {
		fatalf("writing records: %v", err)
	}

	// Model-update-on-completion: fold the finished scan into the
	// responsiveness model. A resumed scan's in-memory records cover only
	// its own segment, so when the output went to a file the whole file
	// (all segments) is re-read instead. Incomplete scans never train —
	// a half-visited permutation would bias every prefix it missed dark
	// on the next threshold pass.
	if *smartUpdate {
		if res.Incomplete {
			fmt.Fprintf(os.Stderr, "iwscan: scan incomplete; -smart-model %s left unchanged\n", *smartModel)
		} else {
			recs := res.Records
			if *out != "" {
				var err error
				if recs, err = output.ReadRecordsFile(*out); err != nil {
					fatalf("-smart-update: re-reading %s: %v", *out, err)
				}
			}
			model.ObserveRecords(recs)
			if err := prefixtree.Save(*smartModel, model); err != nil {
				fatalf("-smart-update: %v", err)
			}
			if !*quiet {
				t := model.Total()
				fmt.Fprintf(os.Stderr,
					"smart: model %s updated with %d records (now %d /24s, %d probed, %d responsive, %d live, %d dark)\n",
					*smartModel, len(recs), model.Len(), t.Probed, t.Responsive, t.Live, t.Dark)
			}
		}
	}

	if ts != nil {
		if err := ts.CloseStream(); err != nil {
			fatalf("writing telemetry: %v", err)
		}
		if telemFile != nil {
			if err := telemFile.Close(); err != nil {
				fatalf("closing %s: %v", *telemOut, err)
			}
		}
		if !*quiet {
			total, byKind, last := ts.AnomalySummary()
			where := "served at /timeseries and /dash"
			if *telemOut != "" {
				where = "written to " + *telemOut
			}
			fmt.Fprintf(os.Stderr, "telemetry: %d samples %s\n", ts.TotalSamples(), where)
			if total > 0 {
				parts := make([]string, 0, len(byKind))
				for _, k := range []string{timeseries.KindStall, timeseries.KindRetryStorm, timeseries.KindDropSpike, timeseries.KindShardSkew} {
					if byKind[k] > 0 {
						parts = append(parts, fmt.Sprintf("%s=%d", k, byKind[k]))
					}
				}
				fmt.Fprintf(os.Stderr, "telemetry: %d anomalies (%s); last: %s\n",
					total, strings.Join(parts, ", "), last.Detail)
			}
		}
	}

	if pcapFile != nil {
		if err := fcfg.Pcap.Flush(); err != nil {
			fatalf("writing pcap: %v", err)
		}
		if err := pcapFile.Close(); err != nil {
			fatalf("closing %s: %v", *pcap, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %d packets to %s\n", fcfg.Pcap.Packets(), *pcap)
		}
	}

	if flightEnabled {
		if err := fr.WriteErr(); err != nil {
			fatalf("writing flight records: %v", err)
		}
		if !*quiet {
			if *flightDir != "" {
				fmt.Fprintf(os.Stderr, "flight recorder: %d records frozen, %d written to %s\n",
					fr.TotalFrozen(), fr.Written(), *flightDir)
			} else {
				fmt.Fprintf(os.Stderr, "flight recorder: %d records frozen (in memory; served at /flight)\n",
					fr.TotalFrozen())
			}
		}
	}

	if *metOut != "" {
		f, err := os.Create(*metOut)
		if err != nil {
			fatalf("%v", err)
		}
		if strings.HasSuffix(*metOut, ".prom") {
			err = res.Metrics.WritePrometheus(f)
		} else {
			err = res.Metrics.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("writing metrics: %v", err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metOut)
		}
	}

	if res.Incomplete {
		fmt.Fprintf(os.Stderr,
			"iwscan: scan stopped at time limit after %d probes; resume with -resume %s\n",
			res.Engine.Launched, cmp.Or(*ckPath, *resume, "<checkpoint file>"))
	}

	if !*quiet {
		o := analysis.Table1(res.Records)
		fmt.Fprintf(os.Stderr,
			"scanned %d targets in %v virtual time (%d packets on the wire)\n",
			res.Engine.Launched, res.VirtualTime, res.Net.PacketsSent)
		if res.Engine.Retries > 0 {
			fmt.Fprintf(os.Stderr, "re-launched %d timed-out probes\n", res.Engine.Retries)
		}
		fmt.Fprintf(os.Stderr,
			"reachable %d: success %.1f%%, few-data %.1f%%, error %.1f%%\n",
			o.Reachable, 100*o.Success, 100*o.FewData, 100*o.Error)
		if o.Reachable > 0 {
			fmt.Fprintf(os.Stderr, "IW distribution: %s\n",
				analysis.FormatDistribution(analysis.IWDistribution(res.Records)))
		}
	}
}
