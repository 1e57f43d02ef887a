/**
 * @file
 * icfp-sim — command-line driver for the simulation library.
 *
 * Subcommands:
 *   list    [--suite S]          show one workload suite's benchmarks
 *   suites                       show the registered workload suites
 *   cores                        show the registered core models
 *   run     --bench B --core C   run one model, print full statistics
 *   compare --bench B            run every model on one benchmark
 *   suite   --core C [--suite S] run one model over a whole suite
 *   sweep   [--benches ...] [--cores ...]  run a (bench × core) grid
 *   merge   [--out F] SHARD...   stitch `sweep --shard` artifacts back
 *                                into the byte-identical unsharded report
 *   perf    [--quick] [--baseline F]  measure simulator throughput over
 *                                one suite's grid; emits BENCH_perf.json
 *   trace   --bench B --save-trace F   generate + save a golden trace
 *   disasm  --bench B [--n N]    print the first N dynamic instructions
 *   version                      sim + registry identity as JSON (the
 *                                service handshake / result-cache blob)
 *   serve   --socket PATH        run the simulation service daemon
 *   submit  --socket PATH [--wait]    submit a sweep job to a daemon
 *   status  --socket PATH [--job N] [--json]   query one job's state,
 *                                or (without --job) the daemon itself:
 *                                identity and queue occupancy
 *   result  --socket PATH --job N     fetch one job's artifact
 *   cancel  --socket PATH --job N     cancel a queued or running job
 *   ping    --socket PATH        handshake + round-trip latency check
 *   metrics --socket PATH [--json]    scrape the daemon's metrics
 *                                registry (Prometheus text exposition,
 *                                or the flat JSON form with --json)
 *
 * Common options:
 *   --insts N        dynamic instruction budget (default 200000)
 *   --seed S         workload RNG seed override
 *   --suite S        workload suite (list/compare/suite/sweep/perf;
 *                    default spec2000; see `icfp-sim suites`)
 *   --l2-lat N       L2 hit latency in cycles (Figure 6 sweeps)
 *   --mem-lat N      memory latency in cycles
 *   --poison-bits N  iCFP poison-vector width (1..16)
 *   --trigger T      advance trigger: none | l2 | any
 *   --blocking-rally use single blocking rallies (SLTP-style iCFP)
 *   --no-mt-rally    disable multithreaded rally+tail execution
 *   --load-trace F   replay a saved trace instead of generating one
 *   --save-trace F   also save the generated trace
 *
 * Sweep options (compare/suite/sweep run on the parallel sweep engine):
 *   --jobs N         worker threads (default: hardware concurrency).
 *                    Reports are byte-identical for any N.
 *   --benches A,B,C  benchmark subset for sweep (default: all)
 *   --cores X,Y      core-model subset for sweep (default: all)
 *   --format F       sweep output: table | csv | json (default table)
 *   --out FILE       write the sweep report to FILE instead of stdout
 *   --shard i/N      run only shard i of N (1-based); emits a shard
 *                    artifact (csv/json only) for `icfp-sim merge`
 *   --trace-dir DIR  persistent golden-trace store (overrides the
 *                    ICFP_TRACE_DIR environment variable)
 *
 * Service options (see src/service/server.hh):
 *   --socket PATH    Unix-domain socket the daemon serves / clients use;
 *                    client verbs also accept a TCP host:port (see
 *                    src/service/transport.hh)
 *   --listen-tcp H:P serve: also listen on TCP (port 0 = ephemeral,
 *                    the bound port is logged at startup)
 *   --queue-depth K  serve: max queued+running jobs before `busy` (8)
 *   --jobs N         serve: sweep-engine worker threads
 *   --cache-dir DIR  serve: persistent result-cache directory (the
 *                    crash-safe disk tier; warm repeats survive a
 *                    daemon restart)
 *   --deadline-sec N serve: default per-job wall-clock limit;
 *                    submit: this job's limit (overrides the daemon
 *                    default; 0 = unbounded)
 *   --wait           submit: block until the job finishes and emit the
 *                    artifact (to --out or stdout)
 *   --job N          status/result/cancel: the job id
 *   --timeout SEC    client verbs: per-frame read deadline (0 = wait
 *                    forever; for submit --wait it must exceed the
 *                    expected job time)
 *   --retries N      client verbs: connection retries with exponential
 *                    backoff (daemon restarting / not up yet)
 *   --json           status: dump the raw status frame (machine-
 *                    readable, stable field names)
 *                    metrics: the flat JSON exposition instead of the
 *                    Prometheus text format
 *   --job-trace-dir DIR  serve: publish a Chrome-trace JSON of every
 *                    traced job's phase spans (queue wait, cache probe,
 *                    trace gen, replay, report emit) as
 *                    DIR/job-<id>.trace.json — open in chrome://tracing
 *                    or Perfetto. Observability only: artifacts stay
 *                    byte-identical with tracing on.
 *   --trace          submit: request a per-job trace (errors loudly if
 *                    the daemon has no --job-trace-dir)
 *   submit also honors --suite/--benches/--cores/--insts/--seed and
 *   --format csv|json (default csv); the fetched artifact is
 *   byte-identical to `icfp-sim sweep` with the same options.
 *
 * A grid split across processes or hosts: run `sweep --shard i/N` once
 * per process (any host), copy the shard artifacts together, and
 * `merge` them — the result is byte-identical to one unsharded sweep.
 *
 * Perf options (see sim/perf_harness.hh):
 *   --quick          trimmed grid / budget for CI smoke runs
 *   --reps N         timed repetitions per case (median-of-N, default 3)
 *   --warmup N       untimed repetitions per case (default 1)
 *   --baseline FILE  prior BENCH_perf.json; the emitted artifact then
 *                    records both numbers and the speedup ratio
 *
 * Exit status: 0 on success, 1 on usage errors.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "isa/trace_io.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/merge.hh"
#include "sim/perf_harness.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/trace_store.hh"
#include "sim/version_info.hh"
#include "workloads/nonspec_suites.hh"
#include "workloads/suite_registry.hh"

namespace {

using namespace icfp;

/** Parsed command line. */
struct Options
{
    std::string command;
    std::string bench = "mcf";
    bool benchSet = false; ///< --bench given explicitly
    std::string core = "icfp";
    std::string suite = kDefaultSuiteName;
    bool suiteSet = false; ///< --suite given explicitly
    uint64_t insts = kDefaultBenchInsts;
    bool instsSet = false; ///< --insts given explicitly
    std::optional<uint64_t> seed;
    std::optional<Cycle> l2Latency;
    std::optional<Cycle> memLatency;
    std::optional<unsigned> poisonBits;
    std::optional<std::string> trigger;
    bool blockingRally = false;
    bool noMtRally = false;
    std::optional<std::string> loadTrace;
    std::optional<std::string> saveTrace;
    unsigned disasmCount = 32;

    // Sweep-engine options.
    unsigned jobs = 0; ///< 0 = defaultSweepJobs()
    std::string benches = "all";
    std::string cores = "all";
    std::string format = "table";
    bool formatSet = false; ///< --format given explicitly
    std::optional<std::string> out;
    std::optional<ShardSpec> shard;
    std::optional<std::string> traceDir;

    // Service options.
    std::string socket;
    size_t queueDepth = 8;
    bool queueDepthSet = false;
    bool wait = false;
    std::optional<uint64_t> jobId;
    std::optional<std::string> cacheDir;
    uint64_t deadlineSec = 0;
    bool deadlineSecSet = false;
    unsigned timeoutSec = 0;
    bool timeoutSet = false;
    unsigned retries = 0;
    bool retriesSet = false;

    std::string listenTcp; ///< serve: extra TCP listener, "host:port"
    bool statusJson = false; ///< status/metrics --json: machine form

    // Observability options.
    std::optional<std::string> jobTraceDir; ///< serve --job-trace-dir
    bool trace = false;                     ///< submit --trace

    // Perf options.
    bool quick = false;
    unsigned perfReps = 3;
    bool perfRepsSet = false;
    unsigned perfWarmup = 1;
    bool perfWarmupSet = false;
    std::optional<std::string> baseline;

    std::vector<std::string> inputs; ///< positional args (merge shards)
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: icfp-sim "
                 "<list|suites|cores|run|compare|suite|sweep|merge|perf|"
                 "trace|disasm|version|serve|submit|status|result|cancel|"
                 "ping|metrics> [options]\n"
                 "see the file comment in tools/icfp_sim_main.cc for the "
                 "option list\n");
}

bool
parseArgs(int argc, char **argv, Options *opt)
{
    if (argc < 2)
        return false;
    opt->command = argv[1];

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            opt->bench = next();
            opt->benchSet = true;
        } else if (arg == "--core") {
            opt->core = next();
        } else if (arg == "--suite") {
            opt->suite = next();
            opt->suiteSet = true;
        } else if (arg == "--insts") {
            opt->insts = std::strtoull(next(), nullptr, 0);
            opt->instsSet = true;
        } else if (arg == "--seed") {
            opt->seed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--l2-lat") {
            opt->l2Latency = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--mem-lat") {
            opt->memLatency = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--poison-bits") {
            opt->poisonBits =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
        } else if (arg == "--trigger") {
            opt->trigger = next();
        } else if (arg == "--blocking-rally") {
            opt->blockingRally = true;
        } else if (arg == "--no-mt-rally") {
            opt->noMtRally = true;
        } else if (arg == "--load-trace") {
            opt->loadTrace = next();
        } else if (arg == "--save-trace") {
            opt->saveTrace = next();
        } else if (arg == "--n") {
            opt->disasmCount =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
        } else if (arg == "--jobs") {
            opt->jobs =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
            if (opt->jobs == 0)
                opt->jobs = 1;
        } else if (arg == "--benches") {
            opt->benches = next();
        } else if (arg == "--cores") {
            opt->cores = next();
        } else if (arg == "--format") {
            opt->format = next();
            opt->formatSet = true;
        } else if (arg == "--out") {
            opt->out = next();
        } else if (arg == "--shard") {
            const char *text = next();
            opt->shard = parseShardSpec(text);
            if (!opt->shard) {
                std::fprintf(stderr,
                             "bad --shard '%s' (want i/N with "
                             "1 <= i <= N)\n",
                             text);
                return false;
            }
        } else if (arg == "--socket") {
            opt->socket = next();
        } else if (arg == "--queue-depth") {
            opt->queueDepth =
                static_cast<size_t>(std::strtoull(next(), nullptr, 0));
            if (opt->queueDepth == 0) {
                std::fprintf(stderr,
                             "--queue-depth must be at least 1\n");
                return false;
            }
            opt->queueDepthSet = true;
        } else if (arg == "--wait") {
            opt->wait = true;
        } else if (arg == "--job") {
            opt->jobId = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--cache-dir") {
            opt->cacheDir = next();
            if (opt->cacheDir->empty()) {
                // Same guard as --trace-dir: an empty dir (unset shell
                // variable) would scatter .res files into the CWD.
                std::fprintf(stderr,
                             "--cache-dir requires a non-empty "
                             "directory\n");
                return false;
            }
        } else if (arg == "--deadline-sec") {
            opt->deadlineSec = std::strtoull(next(), nullptr, 0);
            opt->deadlineSecSet = true;
        } else if (arg == "--timeout") {
            opt->timeoutSec =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
            opt->timeoutSet = true;
        } else if (arg == "--listen-tcp") {
            opt->listenTcp = next();
            if (opt->listenTcp.empty()) {
                std::fprintf(stderr,
                             "--listen-tcp requires host:port\n");
                return false;
            }
        } else if (arg == "--json") {
            opt->statusJson = true;
        } else if (arg == "--job-trace-dir") {
            opt->jobTraceDir = next();
            if (opt->jobTraceDir->empty()) {
                // Same guard as --trace-dir/--cache-dir: an empty dir
                // would scatter trace files into the CWD.
                std::fprintf(stderr,
                             "--job-trace-dir requires a non-empty "
                             "directory\n");
                return false;
            }
        } else if (arg == "--trace") {
            opt->trace = true;
        } else if (arg == "--retries") {
            opt->retries =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
            opt->retriesSet = true;
        } else if (arg == "--quick") {
            opt->quick = true;
        } else if (arg == "--reps") {
            opt->perfReps =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
            if (opt->perfReps == 0)
                opt->perfReps = 1;
            opt->perfRepsSet = true;
        } else if (arg == "--warmup") {
            opt->perfWarmup =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
            opt->perfWarmupSet = true;
        } else if (arg == "--baseline") {
            opt->baseline = next();
        } else if (arg == "--trace-dir") {
            opt->traceDir = next();
            if (opt->traceDir->empty()) {
                // An empty dir (unset shell variable) would root the
                // store at "" and scatter .trc files into the CWD.
                std::fprintf(stderr,
                             "--trace-dir requires a non-empty "
                             "directory\n");
                return false;
            }
        } else if (arg.rfind("--", 0) != 0) {
            opt->inputs.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

/**
 * The config-shaping options as a canonical string for the sweep grid
 * fingerprint: makeConfig() bakes these into every variant without
 * renaming it, so two shards run with different overrides would
 * otherwise look mergeable.
 */
std::string
configIdentity(const Options &opt)
{
    std::string id = "l2=";
    id += opt.l2Latency ? std::to_string(*opt.l2Latency) : "-";
    id += " mem=";
    id += opt.memLatency ? std::to_string(*opt.memLatency) : "-";
    id += " pb=";
    id += opt.poisonBits ? std::to_string(*opt.poisonBits) : "-";
    id += " trig=";
    id += opt.trigger ? *opt.trigger : "-";
    id += opt.blockingRally ? " blocking-rally" : "";
    id += opt.noMtRally ? " no-mt-rally" : "";
    return id;
}

/** Apply option overrides onto a default SimConfig. */
SimConfig
makeConfig(const Options &opt)
{
    SimConfig cfg;
    if (opt.l2Latency)
        cfg.mem.l2HitLatency = *opt.l2Latency;
    if (opt.memLatency)
        cfg.mem.memory.accessLatency = *opt.memLatency;
    if (opt.poisonBits) {
        cfg.icfp.poisonBits = *opt.poisonBits;
        cfg.mem.poisonBits = *opt.poisonBits;
    }
    if (opt.trigger) {
        AdvanceTrigger t = AdvanceTrigger::AnyDcache;
        if (*opt.trigger == "none")
            t = AdvanceTrigger::None;
        else if (*opt.trigger == "l2")
            t = AdvanceTrigger::L2Only;
        else if (*opt.trigger != "any")
            ICFP_FATAL("bad --trigger %s", opt.trigger->c_str());
        cfg.icfp.trigger = t;
        cfg.runahead.trigger = t;
    }
    if (opt.blockingRally)
        cfg.icfp.nonBlockingRally = false;
    if (opt.noMtRally)
        cfg.icfp.multithreadedRally = false;
    return cfg;
}

/** Build (or load) the golden trace per the options. */
Trace
makeTrace(const Options &opt)
{
    if (opt.loadTrace)
        return loadTraceFile(*opt.loadTrace);
    BenchmarkSpec spec = findBenchmark(opt.bench);
    if (opt.seed)
        spec.workload.seed = *opt.seed;
    Trace trace = makeBenchTrace(spec, opt.insts);
    if (opt.saveTrace)
        saveTraceFile(*opt.saveTrace, trace);
    return trace;
}

/** Resolve --benches: "all" means the whole --suite. */
std::vector<std::string>
resolveBenches(const std::string &list, const std::string &suite)
{
    if (list == "all") {
        std::vector<std::string> names;
        for (const BenchmarkSpec &spec : findSuite(suite))
            names.push_back(spec.name);
        return names;
    }
    return splitCommaList(list);
}

/** Resolve --cores: "all" means every registered model. */
std::vector<CoreKind>
resolveCores(const std::string &list)
{
    if (list == "all")
        return CoreRegistry::instance().kinds();
    std::vector<CoreKind> kinds;
    for (const std::string &name : splitCommaList(list)) {
        const auto kind = parseCoreKind(name);
        if (!kind)
            ICFP_FATAL("unknown core '%s'", name.c_str());
        kinds.push_back(*kind);
    }
    return kinds;
}

/** One variant per core kind, all sharing the option-derived config. */
std::vector<SweepVariant>
coreVariants(const std::vector<CoreKind> &kinds, const SimConfig &cfg)
{
    std::vector<SweepVariant> variants;
    for (const CoreKind kind : kinds)
        variants.push_back({coreKindName(kind), kind, cfg});
    return variants;
}

/** The one list of sweep output formats (validation + dispatch). */
bool
validSweepFormat(const std::string &format)
{
    return format == "table" || format == "csv" || format == "json";
}

/** Apply --trace-dir (overriding the ICFP_TRACE_DIR directory; the
 *  ICFP_TRACE_DIR_MAX_MB cap still applies). */
void
applyTraceDir(SweepEngine &engine, const Options &opt)
{
    if (opt.traceDir) {
        engine.setTraceStore(std::make_shared<TraceStore>(
            *opt.traceDir, TraceStore::maxBytesFromEnv()));
    }
}

/** One greppable stderr line of trace-store traffic (the observable
 *  hit/miss counter: a warm store shows misses=0 generations=0). */
void
printStoreStats(const SweepEngine &engine)
{
    const TraceStore *store = engine.traceStore();
    if (!store)
        return;
    const TraceStore::Stats s = store->stats();
    std::fprintf(stderr,
                 "icfp-sim: trace store hits=%llu misses=%llu "
                 "writes=%llu corrupt=%llu evictions=%llu "
                 "generations=%llu dir=%s\n",
                 (unsigned long long)s.hits, (unsigned long long)s.misses,
                 (unsigned long long)s.writes,
                 (unsigned long long)s.corrupt,
                 (unsigned long long)s.evictions,
                 (unsigned long long)engine.traceGenerations(),
                 store->dir().c_str());
}

/**
 * Emit a sweep report per --format/--out. With --shard, emits a shard
 * artifact carrying (shard, @p grid_rows) metadata for `icfp-sim merge`.
 * @pre validSweepFormat()
 */
int
emitSweep(const Options &opt, const std::vector<SweepResult> &results,
          uint64_t grid_rows, uint64_t grid_fp)
{
    std::string text;
    if (opt.shard && opt.format == "csv") {
        text = shardCsv(results, *opt.shard, grid_rows, grid_fp);
    } else if (opt.shard && opt.format == "json") {
        text = shardJson(results, *opt.shard, grid_rows, grid_fp);
    } else if (opt.format == "csv") {
        text = sweepCsv(results);
    } else if (opt.format == "json") {
        text = sweepJson(results);
    } else if (opt.format == "table") {
        Table t("Sweep results (" + std::to_string(results.size()) +
                " runs)");
        t.setColumns({"bench/variant", "IPC", "D$ miss/KI", "L2 miss/KI",
                      "D$ MLP", "L2 MLP", "rally/KI"});
        for (const SweepResult &r : results) {
            t.addRow(r.bench + "/" + r.variant,
                     {r.result.ipc(),
                      r.result.missPerKi(r.result.mem.dcacheMisses),
                      r.result.missPerKi(r.result.mem.l2Misses),
                      r.result.dcacheMlp, r.result.l2Mlp,
                      r.result.rallyPerKi()},
                     2);
        }
        text = t.str();
    } else {
        ICFP_PANIC("unvalidated format '%s'", opt.format.c_str());
    }

    if (opt.out) {
        std::FILE *f = std::fopen(opt.out->c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", opt.out->c_str());
            return 1;
        }
        std::fputs(text.c_str(), f);
        std::fclose(f);
        std::printf("wrote %zu runs to %s\n", results.size(),
                    opt.out->c_str());
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return 0;
}

void
printResult(const RunResult &r)
{
    Table t("Run statistics: " + r.core);
    t.setColumns({"metric", "value"});
    t.addRow("instructions", {double(r.instructions)}, 0);
    t.addRow("cycles", {double(r.cycles)}, 0);
    t.addRow("IPC", {r.ipc()}, 3);
    t.addRow("D$ misses/KI", {r.missPerKi(r.mem.dcacheMisses)}, 2);
    t.addRow("L2 misses/KI", {r.missPerKi(r.mem.l2Misses)}, 2);
    t.addRow("D$ MLP", {r.dcacheMlp}, 2);
    t.addRow("L2 MLP", {r.l2Mlp}, 2);
    t.addRow("prefetch hits", {double(r.mem.prefetchHits)}, 0);
    t.addRow("cond mispredicts", {double(r.branch.condMispredicts)}, 0);
    t.addRow("advance entries", {double(r.advanceEntries)}, 0);
    t.addRow("advance insts", {double(r.advanceInsts)}, 0);
    t.addRow("sliced insts", {double(r.slicedInsts)}, 0);
    t.addRow("rally passes", {double(r.rallyPasses)}, 0);
    t.addRow("rally insts/KI", {r.rallyPerKi()}, 1);
    t.addRow("squashes", {double(r.squashes)}, 0);
    t.addRow("simple-RA entries", {double(r.simpleRaEntries)}, 0);
    t.addRow("SB excess hops/load",
             {r.sbChainLoads ? double(r.sbExcessHops) / double(r.sbChainLoads)
                             : 0.0},
             3);
    t.print();
}

int
cmdList(const Options &opt)
{
    Table t("Benchmark analogs (paper Table 2 reference miss rates)");
    t.setColumns({"bench", "fp?", "paper D$/KI", "paper L2/KI"});
    for (const BenchmarkSpec &spec : findSuite(opt.suite)) {
        t.addRow(spec.name,
                 {spec.isFp ? 1.0 : 0.0, spec.paperDcacheMissKi,
                  spec.paperL2MissKi},
                 0);
    }
    t.print();
    return 0;
}

int
cmdSuites()
{
    std::printf("registered workload suites:\n");
    for (const std::string &name : suiteNames()) {
        const SuiteRegistry &registry = SuiteRegistry::instance();
        std::printf("  %-10s %2zu benches  %s\n", name.c_str(),
                    registry.suite(name).size(),
                    registry.description(name).c_str());
    }
    return 0;
}

int
cmdCores()
{
    std::printf("registered core models:\n");
    for (const CoreKind kind : CoreRegistry::instance().kinds())
        std::printf("  %s\n", coreKindName(kind));
    return 0;
}

int
cmdRun(const Options &opt)
{
    const auto kind = parseCoreKind(opt.core);
    if (!kind) {
        std::fprintf(stderr, "unknown core '%s'\n", opt.core.c_str());
        return 1;
    }
    const Trace trace = makeTrace(opt);
    const SimConfig cfg = makeConfig(opt);
    printResult(simulate(*kind, cfg, trace));
    return 0;
}

int
cmdCompare(const Options &original)
{
    Options opt = original;
    // --suite selects the benchmark namespace: without an explicit
    // --bench, compare the models on the suite's first benchmark.
    if (opt.suiteSet && !opt.benchSet)
        opt.bench = findSuite(opt.suite).front().name;
    const SimConfig cfg = makeConfig(opt);
    const std::vector<SweepVariant> variants =
        coreVariants(CoreRegistry::instance().kinds(), cfg);

    SweepEngine engine(opt.jobs);
    applyTraceDir(engine, opt);
    std::vector<SweepResult> results;
    if (opt.loadTrace) {
        const Trace trace = makeTrace(opt);
        results = engine.runOnTrace(trace, variants, opt.bench);
    } else {
        SweepSpec spec;
        spec.benches = {opt.bench};
        spec.variants = variants;
        spec.insts = opt.insts;
        spec.seed = opt.seed;
        results = engine.run(spec);
        if (opt.saveTrace)
            saveTraceFile(*opt.saveTrace,
                          engine.trace(opt.bench, opt.insts, opt.seed));
        printStoreStats(engine);
    }

    Table t("All models on " + opt.bench);
    t.setColumns({"core", "IPC", "speedup %", "D$ MLP", "L2 MLP",
                  "rally/KI"});
    const RunResult &base = results.front().result; // in-order is first
    for (const SweepResult &sr : results) {
        const RunResult &r = sr.result;
        t.addRow(sr.variant,
                 {r.ipc(), percentSpeedup(base, r), r.dcacheMlp, r.l2Mlp,
                  r.rallyPerKi()},
                 2);
    }
    t.print();
    return 0;
}

/** Multi-bench commands generate per-bench traces; trace I/O options
 *  would be silently meaningless, so reject them loudly. */
bool
rejectTraceIo(const Options &opt, const char *command)
{
    if (opt.loadTrace || opt.saveTrace) {
        std::fprintf(stderr,
                     "%s: --load-trace/--save-trace are not supported "
                     "(runs one trace per benchmark); use 'run' or "
                     "'compare'\n",
                     command);
        return true;
    }
    return false;
}

int
cmdSuite(const Options &opt)
{
    if (rejectTraceIo(opt, "suite"))
        return 1;
    const auto kind = parseCoreKind(opt.core);
    if (!kind) {
        std::fprintf(stderr, "unknown core '%s'\n", opt.core.c_str());
        return 1;
    }
    SweepSpec spec;
    spec.benches = resolveBenches("all", opt.suite);
    spec.variants = {{opt.core, *kind, makeConfig(opt)}};
    spec.insts = opt.insts;
    spec.seed = opt.seed;

    SweepEngine engine(opt.jobs);
    applyTraceDir(engine, opt);
    const std::vector<SweepResult> results = engine.run(spec);
    printStoreStats(engine);

    Table t("Suite results: " + opt.core);
    t.setColumns({"bench", "IPC", "D$ miss/KI", "L2 miss/KI", "D$ MLP",
                  "L2 MLP"});
    for (const SweepResult &sr : results) {
        const RunResult &r = sr.result;
        t.addRow(sr.bench,
                 {r.ipc(), r.missPerKi(r.mem.dcacheMisses),
                  r.missPerKi(r.mem.l2Misses), r.dcacheMlp, r.l2Mlp},
                 2);
    }
    t.print();
    return 0;
}

int
cmdSweep(const Options &opt)
{
    if (rejectTraceIo(opt, "sweep"))
        return 1;
    // Validate the output sink before burning grid time.
    if (!validSweepFormat(opt.format)) {
        std::fprintf(stderr, "unknown format '%s'\n", opt.format.c_str());
        return 1;
    }
    if (opt.shard && opt.format == "table") {
        std::fprintf(stderr,
                     "--shard emits a mergeable artifact; use "
                     "--format csv or json\n");
        return 1;
    }
    SweepSpec spec;
    spec.benches = resolveBenches(opt.benches, opt.suite);
    // Validate names before touching the output file (findBenchmark is
    // fatal on a typo, and must not cost the user an existing report).
    for (const std::string &bench : spec.benches)
        findBenchmark(bench);
    spec.variants = coreVariants(resolveCores(opt.cores), makeConfig(opt));
    spec.insts = opt.insts;
    spec.seed = opt.seed;
    if (opt.out) {
        // Writability probe in append mode: never truncates existing
        // results; emitSweep rewrites the file after the grid completes.
        std::FILE *f = std::fopen(opt.out->c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", opt.out->c_str());
            return 1;
        }
        std::fclose(f);
    }

    const std::vector<SweepJob> grid = expandGrid(spec);
    const std::vector<SweepJob> jobs =
        opt.shard ? shardJobs(grid, *opt.shard) : grid;

    SweepEngine engine(opt.jobs);
    applyTraceDir(engine, opt);
    const std::vector<SweepResult> results =
        engine.run(jobs, spec.insts, spec.seed);
    printStoreStats(engine);
    return emitSweep(opt, results, grid.size(),
                     gridFingerprint(grid, spec.insts, spec.seed,
                                     configIdentity(opt)));
}

int
cmdMerge(const Options &opt)
{
    if (opt.inputs.empty()) {
        std::fprintf(stderr,
                     "merge: give the shard artifact files to merge\n");
        return 1;
    }
    if (opt.formatSet) {
        // Never pretend to honor a format we don't control: the merged
        // report's format is whatever the shard artifacts carry.
        std::fprintf(stderr,
                     "merge: the output format is inferred from the "
                     "artifacts; --format is not accepted\n");
        return 1;
    }
    if (opt.instsSet || opt.benches != "all" || opt.cores != "all" ||
        opt.seed || opt.jobs != 0) {
        // Same policy as --format: merge only stitches artifacts, so a
        // sweep-shaping option here would be silently meaningless.
        std::fprintf(stderr,
                     "merge: --insts/--benches/--cores/--seed/--jobs "
                     "shape a sweep, not a merge; rerun the shards "
                     "instead\n");
        return 1;
    }
    std::string text;
    try {
        text = mergeShardFiles(opt.inputs);
    } catch (const MergeError &e) {
        std::fprintf(stderr, "merge: %s\n", e.what());
        return 1;
    }
    if (opt.out) {
        std::FILE *f = std::fopen(opt.out->c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", opt.out->c_str());
            return 1;
        }
        std::fputs(text.c_str(), f);
        std::fclose(f);
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return 0;
}

int
cmdPerf(const Options &opt)
{
    PerfOptions perf;
    perf.suite = opt.suite;
    perf.quick = opt.quick;
    perf.reps = opt.perfRepsSet ? opt.perfReps : (opt.quick ? 1 : 3);
    perf.warmup = opt.perfWarmupSet ? opt.perfWarmup
                                    : (opt.quick ? 0 : 1);
    if (opt.instsSet)
        perf.insts = opt.insts;
    else
        perf.insts = opt.quick ? 20000 : 100000;
    if (opt.benches != "all")
        perf.benches = splitCommaList(opt.benches);

    std::optional<PerfBaseline> baseline;
    if (opt.baseline) {
        baseline = readPerfBaseline(*opt.baseline);
        if (!baseline)
            return 1; // a requested comparison that can't happen is an error
        // Refuse a cross-suite comparison: a "speedup" of nonspec
        // pointer-chasing over the fig5 SPEC grid is meaningless, and
        // would be baked into the emitted artifact as if measured.
        // (quick vs full of the SAME suite is allowed — that is a
        // budget difference, the classic before/after workflow.)
        const std::string current =
            perfGridSuitePart(perfGridName(opt.suite, opt.quick));
        if (!baseline->grid.empty() &&
            perfGridSuitePart(baseline->grid) != current) {
            std::fprintf(stderr,
                         "perf: baseline %s measured grid '%s' but this "
                         "run is '%s'; rerun with a matching --suite\n",
                         opt.baseline->c_str(), baseline->grid.c_str(),
                         current.c_str());
            return 1;
        }
    }

    const PerfReport report = runPerfHarness(perf);
    const std::string json = perfReportJson(report, baseline);

    const std::string out_path = opt.out ? *opt.out : "BENCH_perf.json";
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);

    // Human-readable summary on stdout; the artifact holds the details.
    Table t("Simulator throughput (" + report.grid + ", " +
            std::to_string(report.instsPerBench) + " insts/bench, median of " +
            std::to_string(report.reps) + ")");
    t.setColumns({"stage", "Minsts/s"});
    t.addRow("trace gen", {report.genInstsPerSec / 1e6}, 2);
    for (const PerfSchemeStat &st : report.schemes)
        t.addRow("replay " + st.scheme, {st.instsPerSec / 1e6}, 2);
    t.addRow("replay overall", {report.replayInstsPerSec / 1e6}, 2);
    t.print();
    if (baseline && baseline->replayInstsPerSec > 0.0) {
        std::printf("replay speedup vs baseline: %.2fx\n",
                    report.replayInstsPerSec / baseline->replayInstsPerSec);
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

int
cmdTrace(const Options &opt)
{
    if (!opt.saveTrace) {
        std::fprintf(stderr, "trace: requires --save-trace FILE\n");
        return 1;
    }
    const Trace trace = makeTrace(opt);
    std::printf("saved %zu dynamic instructions to %s\n", trace.size(),
                opt.saveTrace->c_str());
    return 0;
}

int
cmdVersion()
{
    std::fputs(versionJson().c_str(), stdout);
    return 0;
}

/** SIGTERM/SIGINT land here; the serve loop polls the flag. */
std::atomic<bool> g_drainRequested{false};

void
onDrainSignal(int)
{
    g_drainRequested.store(true);
}

int
cmdServe(const Options &opt)
{
    service::ServerOptions sopt;
    sopt.socketPath = opt.socket;
    sopt.jobs = opt.jobs;
    sopt.queueDepth = opt.queueDepth;
    sopt.traceDir = opt.traceDir;
    sopt.cacheDir = opt.cacheDir;
    sopt.deadlineSec = opt.deadlineSec;
    sopt.listenTcp = opt.listenTcp;
    sopt.jobTraceDir = opt.jobTraceDir;
    service::Server server(std::move(sopt));

    // Handlers first: a supervisor's SIGTERM racing startup must drain,
    // not kill the process with the socket file left behind.
    struct sigaction sa{};
    sa.sa_handler = onDrainSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "serve: %s\n", e.what());
        return 1;
    }

    while (!g_drainRequested.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.requestDrain();
    server.join();
    return 0;
}

/** The --timeout/--retries pair every client verb passes through. */
service::ClientOptions
clientOptions(const Options &opt)
{
    service::ClientOptions copt;
    copt.timeoutSec = opt.timeoutSec;
    copt.retries = opt.retries;
    return copt;
}

/** Emit a fetched artifact payload per --out (file) or to stdout. */
int
emitPayload(const Options &opt, const std::string &payload)
{
    if (opt.out) {
        std::FILE *f = std::fopen(opt.out->c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", opt.out->c_str());
            return 1;
        }
        std::fputs(payload.c_str(), f);
        std::fclose(f);
    } else {
        std::fputs(payload.c_str(), stdout);
    }
    return 0;
}

int
cmdSubmit(const Options &opt)
{
    if (rejectTraceIo(opt, "submit"))
        return 1;
    std::string format = opt.format;
    if (!opt.formatSet) {
        format = "csv"; // the service only deals in artifact formats
    } else if (format != "csv" && format != "json") {
        std::fprintf(stderr, "submit: --format must be csv or json\n");
        return 1;
    }
    if (opt.out) {
        // Writability probe in append mode, like cmdSweep: the daemon
        // must not burn grid time for an artifact with nowhere to land
        // (and an existing report must not be truncated by the probe).
        std::FILE *f = std::fopen(opt.out->c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", opt.out->c_str());
            return 1;
        }
        std::fclose(f);
    }
    try {
        service::ServiceClient client(opt.socket, clientOptions(opt));
        service::Frame request("submit");
        if (opt.suiteSet)
            request.addString("suite", opt.suite);
        request.addString("benches", opt.benches);
        request.addString("cores", opt.cores);
        request.addUint("insts", opt.insts);
        if (opt.seed)
            request.addUint("seed", *opt.seed);
        request.addString("format", format);
        if (opt.deadlineSecSet)
            request.addUint("deadline_sec", opt.deadlineSec);
        if (opt.trace)
            request.addUint("trace", 1);
        if (opt.wait)
            request.addUint("wait", 1);

        const service::Frame response = client.request(request);
        if (response.type() == "busy") {
            std::fprintf(stderr,
                         "submit: server busy (queue depth %llu); "
                         "retry later\n",
                         (unsigned long long)response.uintField("depth",
                                                                0));
            return 1;
        }
        if (response.type() != "submitted") {
            std::fprintf(stderr, "submit: %s\n",
                         response.stringField("message", "unexpected '" +
                                              response.type() +
                                              "' response").c_str());
            return 1;
        }
        const uint64_t job = response.uintField("job", 0);
        const std::string trace_file = response.stringField("trace_file");
        std::fprintf(stderr, "submit: job %llu (fp=%s, %llu rows)%s%s\n",
                     (unsigned long long)job,
                     response.stringField("fp").c_str(),
                     (unsigned long long)response.uintField("rows", 0),
                     trace_file.empty() ? "" : " trace=",
                     trace_file.c_str());
        if (!opt.wait)
            return 0;

        const service::Frame result = client.readFrame();
        if (result.type() != "result") {
            std::fprintf(stderr, "submit: %s\n",
                         result.stringField("message", "unexpected '" +
                                            result.type() +
                                            "' response").c_str());
            return 1;
        }
        return emitPayload(opt, result.stringField("payload"));
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "submit: %s\n", e.what());
        return 1;
    }
}

/** `status` without --job: the daemon's own status frame — queue
 *  occupancy and identity. --json dumps the frame verbatim
 *  (machine-readable, stable field names). */
int
cmdDaemonStatus(const Options &opt)
{
    try {
        service::ServiceClient client(opt.socket, clientOptions(opt));
        const service::Frame response =
            client.request(service::Frame("status"));
        if (response.type() != "status") {
            std::fprintf(stderr, "status: %s\n",
                         response.stringField("message", "unexpected '" +
                                              response.type() +
                                              "' response").c_str());
            return 1;
        }
        if (opt.statusJson) {
            std::printf("%s\n", response.serialize().c_str());
            return 0;
        }
        std::printf("daemon: proto=%llu fp=%s active=%llu/%llu "
                    "queued=%llu completed=%llu failed=%llu%s\n",
                    (unsigned long long)response.uintField("proto", 0),
                    response.stringField("fp").c_str(),
                    (unsigned long long)response.uintField("active", 0),
                    (unsigned long long)response.uintField("queue_depth",
                                                           0),
                    (unsigned long long)response.uintField("queued", 0),
                    (unsigned long long)response.uintField("completed",
                                                           0),
                    (unsigned long long)response.uintField("failed", 0),
                    response.uintField("draining", 0) ? " draining"
                                                      : "");
        if (response.has("running_job")) {
            std::printf("running: job %llu\n",
                        (unsigned long long)response.uintField(
                            "running_job", 0));
        }
        return 0;
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "status: %s\n", e.what());
        return 1;
    }
}

int
cmdStatusOrResult(const Options &opt)
{
    if (!opt.jobId) {
        if (opt.command == "status")
            return cmdDaemonStatus(opt);
        std::fprintf(stderr, "%s: requires --job N\n",
                     opt.command.c_str());
        return 1;
    }
    try {
        service::ServiceClient client(opt.socket, clientOptions(opt));
        service::Frame request(opt.command); // "status" or "result"
        request.addUint("job", *opt.jobId);
        const service::Frame response = client.request(request);
        if (response.type() == "error") {
            std::fprintf(stderr, "%s: %s\n", opt.command.c_str(),
                         response.stringField("message").c_str());
            return 1;
        }
        if (opt.command == "result") {
            if (response.type() != "result") {
                std::fprintf(stderr, "result: unexpected '%s' response\n",
                             response.type().c_str());
                return 1;
            }
            return emitPayload(opt, response.stringField("payload"));
        }
        if (opt.statusJson) {
            std::printf("%s\n", response.serialize().c_str());
            return 0;
        }
        std::printf("job %llu: %s%s (fp=%s)\n",
                    (unsigned long long)response.uintField("job", 0),
                    response.stringField("state").c_str(),
                    response.uintField("cached", 0) ? " (cached)" : "",
                    response.stringField("fp").c_str());
        return 0;
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "%s: %s\n", opt.command.c_str(), e.what());
        return 1;
    }
}

int
cmdCancel(const Options &opt)
{
    if (!opt.jobId) {
        std::fprintf(stderr, "cancel: requires --job N\n");
        return 1;
    }
    try {
        service::ServiceClient client(opt.socket, clientOptions(opt));
        service::Frame request("cancel");
        request.addUint("job", *opt.jobId);
        const service::Frame response = client.request(request);
        if (response.type() == "error") {
            std::fprintf(stderr, "cancel: %s\n",
                         response.stringField("message").c_str());
            return 1;
        }
        if (response.type() != "cancelled") {
            std::fprintf(stderr, "cancel: unexpected '%s' response\n",
                         response.type().c_str());
            return 1;
        }
        const std::string was = response.stringField("was");
        std::printf("job %llu cancelled (%s%s)\n",
                    (unsigned long long)response.uintField("job", 0),
                    was.c_str(),
                    was == "running" ? "; stops at the next row boundary"
                                     : "");
        return 0;
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "cancel: %s\n", e.what());
        return 1;
    }
}

int
cmdPing(const Options &opt)
{
    try {
        service::ServiceClient client(opt.socket, clientOptions(opt));
        const auto sent = std::chrono::steady_clock::now();
        const service::Frame pong = client.request(service::Frame("ping"));
        const auto rtt_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - sent)
                .count();
        if (pong.type() != "pong") {
            std::fprintf(stderr, "ping: unexpected '%s' response\n",
                         pong.type().c_str());
            return 1;
        }
        std::printf("pong: proto=%llu sim=%llu fp=%s rtt_us=%lld\n",
                    (unsigned long long)pong.uintField("proto", 0),
                    (unsigned long long)client.hello().uintField("sim", 0),
                    pong.stringField("fp").c_str(), (long long)rtt_us);
        // A client built from different simulator semantics or workload
        // definitions would compute different result fingerprints; make
        // the divergence visible at ping time, not after a stale fetch.
        const std::string mine = fingerprintHex(registryFingerprint());
        if (pong.stringField("fp") != mine) {
            std::fprintf(stderr,
                         "ping: registry fingerprint mismatch (daemon %s,"
                         " this binary %s) — results will differ\n",
                         pong.stringField("fp").c_str(), mine.c_str());
        }
        return 0;
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "ping: %s\n", e.what());
        return 1;
    }
}

int
cmdMetrics(const Options &opt)
{
    try {
        service::ServiceClient client(opt.socket, clientOptions(opt));
        service::Frame request("metrics");
        request.addString("format", opt.statusJson ? "json" : "text");
        const service::Frame response = client.request(request);
        if (response.type() != "metrics") {
            std::fprintf(stderr, "metrics: %s\n",
                         response.stringField("message", "unexpected '" +
                                              response.type() +
                                              "' response").c_str());
            return 1;
        }
        std::fputs(response.stringField("payload").c_str(), stdout);
        return 0;
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "metrics: %s\n", e.what());
        return 1;
    }
}

int
cmdDisasm(const Options &opt)
{
    const Trace trace = makeTrace(opt);
    const size_t n =
        std::min<size_t>(opt.disasmCount, trace.size());
    for (size_t i = 0; i < n; ++i) {
        const DynInst &di = trace[i];
        std::printf("%6zu  pc=%-5u %-28s", i, di.pc,
                    disassemble(trace.program->code[di.pc]).c_str());
        if (di.isMem())
            std::printf("  ea=0x%llx", (unsigned long long)di.addr);
        if (di.hasDst())
            std::printf("  -> %llu", (unsigned long long)di.result());
        if (di.isControl())
            std::printf("  %s", di.taken() ? "taken" : "not-taken");
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        usage();
        return 1;
    }
    if (opt.command != "merge" && !opt.inputs.empty()) {
        std::fprintf(stderr, "unexpected argument '%s'\n",
                     opt.inputs.front().c_str());
        return 1;
    }
    // Options that other commands would silently ignore are errors: a
    // user who asked for a grid slice must not get the full grid.
    if (opt.shard && opt.command != "sweep") {
        std::fprintf(stderr, "--shard only applies to 'sweep'\n");
        return 1;
    }
    if (opt.traceDir && opt.command != "sweep" &&
        opt.command != "compare" && opt.command != "suite" &&
        opt.command != "serve") {
        std::fprintf(stderr,
                     "--trace-dir only applies to the engine commands "
                     "(sweep, compare, suite, serve)\n");
        return 1;
    }
    if (opt.suiteSet && opt.command != "list" && opt.command != "compare" &&
        opt.command != "suite" && opt.command != "sweep" &&
        opt.command != "perf" && opt.command != "submit") {
        std::fprintf(stderr,
                     "--suite only applies to list, compare, suite, "
                     "sweep, perf, and submit\n");
        return 1;
    }
    const bool service_command =
        opt.command == "serve" || opt.command == "submit" ||
        opt.command == "status" || opt.command == "result" ||
        opt.command == "cancel" || opt.command == "ping" ||
        opt.command == "metrics";
    const bool client_command = service_command && opt.command != "serve";
    if (service_command && opt.socket.empty()) {
        std::fprintf(stderr, "%s: requires --socket PATH\n",
                     opt.command.c_str());
        return 1;
    }
    if (!opt.socket.empty() && !service_command) {
        std::fprintf(stderr,
                     "--socket only applies to the service commands "
                     "(serve, submit, status, result, cancel, ping, "
                     "metrics)\n");
        return 1;
    }
    if (opt.wait && opt.command != "submit") {
        std::fprintf(stderr, "--wait only applies to 'submit'\n");
        return 1;
    }
    if (opt.jobId && opt.command != "status" && opt.command != "result" &&
        opt.command != "cancel") {
        std::fprintf(stderr,
                     "--job only applies to 'status', 'result', and "
                     "'cancel'\n");
        return 1;
    }
    if (opt.queueDepthSet && opt.command != "serve") {
        std::fprintf(stderr, "--queue-depth only applies to 'serve'\n");
        return 1;
    }
    if (!opt.listenTcp.empty() && opt.command != "serve") {
        std::fprintf(stderr, "--listen-tcp only applies to 'serve'\n");
        return 1;
    }
    if (opt.statusJson && opt.command != "status" &&
        opt.command != "metrics") {
        std::fprintf(stderr,
                     "--json only applies to 'status' and 'metrics'\n");
        return 1;
    }
    if (opt.jobTraceDir && opt.command != "serve") {
        std::fprintf(stderr, "--job-trace-dir only applies to 'serve'\n");
        return 1;
    }
    if (opt.trace && opt.command != "submit") {
        std::fprintf(stderr, "--trace only applies to 'submit'\n");
        return 1;
    }
    if (opt.cacheDir && opt.command != "serve") {
        std::fprintf(stderr, "--cache-dir only applies to 'serve'\n");
        return 1;
    }
    if (opt.deadlineSecSet && opt.command != "serve" &&
        opt.command != "submit") {
        std::fprintf(stderr,
                     "--deadline-sec only applies to 'serve' (daemon "
                     "default) and 'submit' (per job)\n");
        return 1;
    }
    if ((opt.timeoutSet || opt.retriesSet) && !client_command) {
        // A daemon has no read deadline by design (idle sessions are
        // free and end at drain); accepting these on serve or a local
        // command would look like they did something.
        std::fprintf(stderr,
                     "--timeout/--retries only apply to the client "
                     "verbs (submit, status, result, cancel, ping)\n");
        return 1;
    }
    if (service_command && opt.command != "submit" &&
        (opt.instsSet || opt.benches != "all" || opt.cores != "all" ||
         opt.seed)) {
        // Grid shape travels with `submit`; on the daemon or the other
        // client verbs these would be silently meaningless.
        std::fprintf(stderr,
                     "%s: --insts/--benches/--cores/--seed shape a "
                     "submit, not this command\n",
                     opt.command.c_str());
        return 1;
    }
    if (opt.formatSet && service_command && opt.command != "submit") {
        std::fprintf(stderr,
                     "--format travels with 'submit' (the artifact "
                     "format is fixed at submission)\n");
        return 1;
    }
    if (opt.out &&
        (opt.command == "serve" || opt.command == "ping" ||
         opt.command == "status" || opt.command == "cancel" ||
         opt.command == "metrics")) {
        std::fprintf(stderr,
                     "--out only applies to 'submit' and 'result' among "
                     "the service commands\n");
        return 1;
    }
    if (opt.jobs != 0 && service_command && opt.command != "serve") {
        // Parallelism is the daemon's --jobs; accepting it on a client
        // verb would look like it parallelized the request.
        std::fprintf(stderr,
                     "--jobs applies to the daemon ('serve'), not to "
                     "%s\n",
                     opt.command.c_str());
        return 1;
    }
    if (service_command &&
        (opt.l2Latency || opt.memLatency || opt.poisonBits ||
         opt.trigger || opt.blockingRally || opt.noMtRally)) {
        // The daemon runs every variant at Table 1 defaults; accepting
        // a config override here and ignoring it would return silently
        // wrong data under the submit==sweep byte-identity promise.
        std::fprintf(stderr,
                     "%s: config overrides (--l2-lat/--mem-lat/"
                     "--poison-bits/--trigger/--blocking-rally/"
                     "--no-mt-rally) are not supported over the service;"
                     " use 'sweep'\n",
                     opt.command.c_str());
        return 1;
    }
    if (opt.suiteSet && !SuiteRegistry::instance().has(opt.suite)) {
        std::fprintf(stderr,
                     "unknown suite '%s' (see 'icfp-sim suites')\n",
                     opt.suite.c_str());
        return 1;
    }
    if (opt.command == "list")
        return cmdList(opt);
    if (opt.command == "suites")
        return cmdSuites();
    if (opt.command == "cores")
        return cmdCores();
    if (opt.command == "run")
        return cmdRun(opt);
    if (opt.command == "compare")
        return cmdCompare(opt);
    if (opt.command == "suite")
        return cmdSuite(opt);
    if (opt.command == "sweep")
        return cmdSweep(opt);
    if (opt.command == "merge")
        return cmdMerge(opt);
    if (opt.command == "perf")
        return cmdPerf(opt);
    if (opt.command == "trace")
        return cmdTrace(opt);
    if (opt.command == "disasm")
        return cmdDisasm(opt);
    if (opt.command == "version")
        return cmdVersion();
    if (opt.command == "serve")
        return cmdServe(opt);
    if (opt.command == "submit")
        return cmdSubmit(opt);
    if (opt.command == "status" || opt.command == "result")
        return cmdStatusOrResult(opt);
    if (opt.command == "cancel")
        return cmdCancel(opt);
    if (opt.command == "ping")
        return cmdPing(opt);
    if (opt.command == "metrics")
        return cmdMetrics(opt);
    usage();
    return 1;
}
