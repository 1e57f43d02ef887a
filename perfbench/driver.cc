/**
 * @file
 * perfbench-driver — the in-process half of the repository benchmark
 * (perfbench/run.py starts it as a child, so a core self-check panic
 * becomes a counted failure instead of a lost record).
 *
 * Modes (each prints one JSON object as its last stdout line):
 *
 *   sweep --benches A,B --cores X,Y --insts N [--seed S] --jobs J
 *         --passes K --csv OUT [--trace OUT]
 *       One timed set-up (a fresh SweepEngine, no trace store,
 *       generating every golden trace), then K timed replay passes of
 *       the grid via SweepEngine::run. With --trace, each pass runs
 *       twice, untraced then with spans around every SweepEngine call,
 *       and the spans are written as a Chrome trace.
 *
 *   walk --benches A,B [--seeds S,T] --insts N --jobs J --store DIR
 *        --csv OUT --trace OUT
 *       Call each layer's public function in turn, once per bench —
 *       buildWorkload, Interpreter::run, writeTrace, readTrace,
 *       TraceStore::store, TraceStore::load — then simulate() every
 *       registered core on every trace and sweepCsv() the result; every
 *       call is a span in the Chrome trace. --seeds gives one workload
 *       seed per bench (service-mix walks its family seeds).
 *
 *   ref --grids FILE --out-dir DIR --jobs J
 *       Direct in-process sweeps of the grids listed in FILE, one per
 *       line: "name benches cores insts seed" (seed "-" = default).
 *       Writes DIR/<name>.csv. Cells shared between grids are simulated
 *       once (simulate() is a pure function of core, config and trace).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.hh"
#include "isa/trace_io.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/trace_store.hh"

namespace {

using namespace icfp;

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench-driver: %s\n", message.c_str());
    std::exit(2);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Parsed "--key value" pairs after the mode word. */
struct Args
{
    std::map<std::string, std::string> values;

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    std::string
    need(const std::string &key) const
    {
        auto it = values.find(key);
        if (it == values.end())
            die("missing --" + key);
        return it->second;
    }

    uint64_t
    number(const std::string &key, uint64_t fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : std::stoull(it->second);
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            die("bad argument '" + key + "'");
        args.values[key.substr(2)] = argv[i + 1];
    }
    return args;
}

std::optional<uint64_t>
seedArg(const std::string &text)
{
    if (text.empty() || text == "-")
        return std::nullopt;
    return std::stoull(text);
}

std::vector<CoreKind>
coreKinds(const std::string &list)
{
    if (list == "all")
        return CoreRegistry::instance().kinds();
    std::vector<CoreKind> kinds;
    for (const std::string &name : splitCommaList(list)) {
        const std::optional<CoreKind> kind = parseCoreKind(name);
        if (!kind)
            die("unknown core '" + name + "'");
        kinds.push_back(*kind);
    }
    return kinds;
}

std::vector<SweepJob>
gridJobs(const std::vector<std::string> &benches,
         const std::vector<CoreKind> &kinds, uint64_t insts,
         std::optional<uint64_t> seed)
{
    SweepSpec spec;
    spec.benches = benches;
    for (const CoreKind kind : kinds)
        spec.variants.push_back({coreKindName(kind), kind, SimConfig{}});
    spec.insts = insts;
    spec.seed = seed;
    return expandGrid(spec);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os << text;
    if (!os)
        die("cannot write " + path);
}

/** Peak resident set of this process (VmHWM), in kB. */
uint64_t
peakRssKb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    return 0;
}

std::string
jsonList(const std::vector<double> &values)
{
    std::ostringstream os;
    os.precision(9);
    os << "[";
    for (size_t i = 0; i < values.size(); ++i)
        os << (i ? "," : "") << values[i];
    os << "]";
    return os.str();
}

/**
 * Span recorder for the traced runs: each span carries its own id, its
 * parent's id (the enclosing span on the same thread), the worker
 * thread, and free-form args such as the bench or core. Disabled
 * recorders cost one branch per call.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name,
              std::vector<std::pair<std::string, std::string>> args = {})
            : tracer_(tracer.enabled() ? &tracer : nullptr)
        {
            if (!tracer_)
                return;
            name_ = std::move(name);
            args_ = std::move(args);
            id_ = tracer_->nextId_.fetch_add(1) + 1;
            parent_ = stack().empty() ? 0 : stack().back();
            stack().push_back(id_);
            startUs_ = metrics::nowMicros();
        }

        ~Scope()
        {
            if (!tracer_)
                return;
            const uint64_t end = metrics::nowMicros();
            stack().pop_back();
            args_.push_back({"id", std::to_string(id_)});
            args_.push_back({"parent", std::to_string(parent_)});
            args_.push_back({"thread", std::to_string(threadIndex())});
            tracer_->spans_.add(std::move(name_), startUs_, end,
                                std::move(args_));
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        static std::vector<uint64_t> &
        stack()
        {
            thread_local std::vector<uint64_t> ids;
            return ids;
        }

      private:
        Tracer *tracer_;
        std::string name_;
        std::vector<std::pair<std::string, std::string>> args_;
        uint64_t id_ = 0;
        uint64_t parent_ = 0;
        uint64_t startUs_ = 0;
    };

    /** Record an already-closed span (e.g. one of the engine's own
     *  phase spans) as a child of the current scope. */
    void
    addChild(std::string name, uint64_t start_us, uint64_t dur_us)
    {
        const uint64_t id = nextId_.fetch_add(1) + 1;
        const uint64_t parent =
            Scope::stack().empty() ? 0 : Scope::stack().back();
        spans_.add(std::move(name), start_us, start_us + dur_us,
                   {{"id", std::to_string(id)},
                    {"parent", std::to_string(parent)},
                    {"thread", std::to_string(threadIndex())}});
    }

    void
    write(const std::string &path, const std::string &label) const
    {
        if (enabled_)
            writeFile(path, metrics::chromeTraceJson(spans_.snapshot(), 0,
                                                     label));
    }

  private:
    static unsigned
    threadIndex()
    {
        static std::atomic<unsigned> next{0};
        thread_local unsigned index = next.fetch_add(1);
        return index;
    }

    bool enabled_;
    std::atomic<uint64_t> nextId_{0};
    metrics::SpanLog spans_;
};

int
cmdSweep(const Args &args)
{
    const std::vector<std::string> benches =
        splitCommaList(args.need("benches"));
    const std::vector<CoreKind> kinds = coreKinds(args.need("cores"));
    const uint64_t insts = args.number("insts", kDefaultBenchInsts);
    const std::optional<uint64_t> seed = seedArg(args.get("seed"));
    const unsigned jobs = unsigned(args.number("jobs", 2));
    const unsigned passes = unsigned(args.number("passes", 3));
    const std::string trace_path = args.get("trace");
    const std::vector<SweepJob> grid = gridJobs(benches, kinds, insts, seed);

    Tracer tracer(!trace_path.empty());
    Tracer untraced(false);

    const double setup_start = nowSeconds();
    SweepEngine engine(jobs);
    engine.setTraceStore(nullptr);
    {
        Tracer::Scope span(tracer, "setup");
        parallelFor(benches.size(), engine.jobs(), [&](size_t i) {
            Tracer::Scope trace_span(tracer, "SweepEngine::trace",
                                     {{"bench", benches[i]}});
            engine.trace(benches[i], insts, seed);
        });
    }
    const double setup_s = nowSeconds() - setup_start;

    // Per-cell replay times come from the engine's own replay-latency
    // histograms (one per bench × core): a pass observes each cell once,
    // so the change in a histogram's sum over a pass is that cell's time.
    std::vector<metrics::Histogram *> cell_histograms;
    for (const SweepJob &job : grid)
        cell_histograms.push_back(&metrics::histogram(
            "icfp_replay_duration_us{bench=\"" +
                metrics::escapeLabelValue(job.bench) + "\",core=\"" +
                coreKindName(job.core) + "\"}",
            metrics::latencyBucketsUs()));
    auto cellSums = [&] {
        std::vector<uint64_t> sums;
        for (const metrics::Histogram *h : cell_histograms)
            sums.push_back(h->sum());
        return sums;
    };
    std::vector<double> pass_s, traced_pass_s, cell_s;
    std::string csv;
    uint64_t mismatched_passes = 0;
    auto pass = [&](Tracer &t, std::vector<double> &walls) {
        const std::vector<uint64_t> before = cellSums();
        const double t0 = nowSeconds();
        std::vector<SweepResult> results;
        {
            Tracer::Scope span(t, "SweepEngine::run");
            metrics::SpanLog phases;
            results = engine.run(grid, insts, seed, nullptr,
                                 t.enabled() ? &phases : nullptr);
            for (const metrics::Span &phase : phases.snapshot())
                t.addChild("sweep." + phase.name, phase.startUs,
                           phase.durUs);
        }
        std::string text;
        {
            Tracer::Scope span(t, "sweepCsv");
            text = sweepCsv(results);
        }
        walls.push_back(nowSeconds() - t0);
        if (!t.enabled()) {
            const std::vector<uint64_t> after = cellSums();
            for (size_t i = 0; i < after.size(); ++i) {
                if (after[i] == before[i])
                    die("no replay time recorded for a grid cell");
                cell_s.push_back(1e-6 * double(after[i] - before[i]));
            }
        }
        if (csv.empty())
            csv = text;
        else if (text != csv)
            ++mismatched_passes;
    };
    for (unsigned p = 0; p < passes; ++p) {
        pass(untraced, pass_s);
        if (tracer.enabled())
            pass(tracer, traced_pass_s);
    }

    writeFile(args.need("csv"), csv);
    tracer.write(trace_path, "perfbench sweep");
    std::printf("{\"setup_s\":%.9f,\"pass_s\":%s,\"traced_pass_s\":%s,"
                "\"cell_s\":%s,\"generations\":%llu,"
                "\"mismatched_passes\":%llu,\"peak_rss_kb\":%llu}\n",
                setup_s, jsonList(pass_s).c_str(),
                jsonList(traced_pass_s).c_str(), jsonList(cell_s).c_str(),
                (unsigned long long)engine.traceGenerations(),
                (unsigned long long)mismatched_passes,
                (unsigned long long)peakRssKb());
    return 0;
}

int
cmdWalk(const Args &args)
{
    const std::vector<std::string> benches =
        splitCommaList(args.need("benches"));
    const std::vector<std::string> seed_texts =
        splitCommaList(args.get("seeds"));
    if (!seed_texts.empty() && seed_texts.size() != benches.size())
        die("--seeds needs one seed per bench");
    const uint64_t insts = args.number("insts", kDefaultBenchInsts);
    const unsigned jobs = unsigned(args.number("jobs", 2));
    const std::vector<CoreKind> kinds = coreKinds("all");
    TraceStore store(args.need("store"));
    Tracer tracer(true);

    std::vector<std::unique_ptr<Trace>> traces(benches.size());
    std::vector<uint64_t> image_bytes(benches.size()),
        trace_bytes(benches.size()), file_bytes(benches.size());
    {
        Tracer::Scope gen(tracer, "walk.generate");
        parallelFor(benches.size(), jobs, [&](size_t b) {
            BenchmarkSpec spec = findBenchmark(benches[b]);
            TraceId id;
            id.bench = benches[b];
            id.insts = insts;
            id.defVersion = spec.defVersion;
            if (!seed_texts.empty() && seed_texts[b] != "-") {
                id.seed = std::stoull(seed_texts[b]);
                spec.workload.seed = *id.seed;
            }
            Tracer::Scope bench(tracer, "walk.bench", {{"bench", id.bench}});
            std::shared_ptr<Program> program;
            {
                Tracer::Scope span(tracer, "buildWorkload");
                program = std::make_shared<Program>(
                    buildWorkload(spec.workload));
            }
            image_bytes[b] = program->initialMemory.sizeBytes();
            {
                Tracer::Scope span(tracer, "Interpreter::run");
                traces[b] = std::make_unique<Trace>(
                    Interpreter::run(std::move(program), insts));
            }
            const Trace &trace = *traces[b];
            trace_bytes[b] = trace.insts.size() * sizeof(DynInst) +
                             trace.finalMemory.sizeBytes();
            std::string encoded;
            {
                Tracer::Scope span(tracer, "writeTrace");
                std::ostringstream os;
                writeTrace(os, trace);
                encoded = os.str();
            }
            file_bytes[b] = encoded.size();
            {
                Tracer::Scope span(tracer, "readTrace");
                std::istringstream is(encoded);
                if (readTrace(is).insts.size() != trace.insts.size())
                    die("readTrace round trip lost instructions");
            }
            {
                Tracer::Scope span(tracer, "TraceStore::store");
                store.store(id, trace);
            }
            {
                Tracer::Scope span(tracer, "TraceStore::load");
                if (!store.load(id))
                    die("TraceStore::load missed a just-stored trace");
            }
        });
    }

    std::vector<SweepResult> results(benches.size() * kinds.size());
    {
        Tracer::Scope replay(tracer, "walk.replay");
        parallelFor(results.size(), jobs, [&](size_t i) {
            const size_t b = i / kinds.size();
            const CoreKind kind = kinds[i % kinds.size()];
            SweepResult &out = results[i];
            out.bench = benches[b];
            out.variant = coreKindName(kind);
            out.core = kind;
            Tracer::Scope span(tracer, "simulate",
                               {{"bench", out.bench}, {"core", out.variant}});
            out.result = simulate(kind, SimConfig{}, *traces[b]);
        });
    }
    std::string csv;
    {
        Tracer::Scope span(tracer, "sweepCsv");
        csv = sweepCsv(results);
    }
    writeFile(args.need("csv"), csv);
    tracer.write(args.need("trace"), "perfbench walk");

    auto sum = [](const std::vector<uint64_t> &v) {
        uint64_t total = 0;
        for (uint64_t x : v)
            total += x;
        return (unsigned long long)total;
    };
    std::printf("{\"image_bytes\":%llu,\"trace_bytes\":%llu,"
                "\"file_bytes\":%llu,\"insts\":%llu}\n",
                sum(image_bytes), sum(trace_bytes), sum(file_bytes),
                (unsigned long long)(insts * benches.size()));
    return 0;
}

int
cmdRef(const Args &args)
{
    std::ifstream is(args.need("grids"));
    if (!is)
        die("cannot read " + args.need("grids"));
    const std::string out_dir = args.need("out-dir");
    SweepEngine engine(unsigned(args.number("jobs", 2)));
    engine.setTraceStore(nullptr);

    // Memoised cells: (bench, core, insts, seed text) → result.
    std::map<std::tuple<std::string, std::string, uint64_t, std::string>,
             RunResult>
        memo;
    std::string line;
    size_t grids = 0;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        std::string name, benches, cores, seed_text;
        uint64_t insts = 0;
        if (!(fields >> name >> benches >> cores >> insts >> seed_text))
            continue;
        const std::optional<uint64_t> seed = seedArg(seed_text);
        std::vector<SweepJob> jobs =
            gridJobs(splitCommaList(benches), coreKinds(cores), insts, seed);
        std::vector<SweepJob> todo;
        for (const SweepJob &job : jobs)
            if (!memo.count({job.bench, job.variant, insts, seed_text}))
                todo.push_back(job);
        for (const SweepResult &r : engine.run(todo, insts, seed))
            memo[{r.bench, r.variant, insts, seed_text}] = r.result;
        std::vector<SweepResult> results;
        for (const SweepJob &job : jobs)
            results.push_back(
                {job.bench, job.variant, job.core,
                 memo.at({job.bench, job.variant, insts, seed_text})});
        writeFile(out_dir + "/" + name + ".csv", sweepCsv(results));
        ++grids;
    }
    std::printf("{\"grids\":%zu,\"cells\":%zu}\n", grids, memo.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench-driver sweep|walk|ref --key value ...");
    const std::string mode = argv[1];
    const Args args = parseArgs(argc, argv);
    if (mode == "sweep")
        return cmdSweep(args);
    if (mode == "walk")
        return cmdWalk(args);
    if (mode == "ref")
        return cmdRef(args);
    die("unknown mode '" + mode + "'");
}
