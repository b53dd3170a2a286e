/**
 * @file
 * mixq benchmark harness.
 *
 *   mixq_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--out-dir D]
 *
 * Workloads (BENCHMARK.json says why each exists):
 *   cnn-poisson     MiniResNet on the Int backend behind the shared-model
 *                   BatchServer, single-item requests in a Poisson open
 *                   loop at a fixed rate;
 *   lstm-saturated  LstmLm on the Int backend behind the same server, a
 *                   closed loop keeping 64 requests in flight (runnable,
 *                   but not in BENCHMARK.json: on a shared 4-core VM its
 *                   run-to-run spread exceeds the largest bound);
 *   qat-export      MSQ QAT of MiniResNet, deploy-artifact save, and
 *                   reloads into fresh models.
 *
 * Inputs (images, token streams, arrival times) come from --seed; the
 * model architectures and initial weights are fixed.
 *
 * --trace 0 sets the workload up several times (setup_s is the median),
 * measures for S seconds and reports the end-to-end metrics. Every
 * workload reports the same four. For serving, latency_p50_ms and
 * latency_p99_ms are percentiles of the settle time of every correct
 * request of the run, and items_per_s counts correct responses per
 * second of wall time. For qat-export, latency is the trainClassifier
 * time per training step (percentiles over the run's training cycles)
 * and items_per_s counts images trained, exported and checked per
 * second of wall time, so it also covers the artifact save and reloads.
 *
 * --trace 1 runs the named workload untraced and then traced for S
 * seconds each, and prints both; the difference is the tracing
 * overhead. It then makes short traced passes of the other two
 * workloads and probes the layers of both served models, so every run
 * reports every per-layer metric. Spans are kept in memory and written
 * to D/trace-<workload>-seed<N>.csv at the end.
 *
 * Output checks: every served response equals the in-process model's
 * solo forward bit for bit; every training cycle reproduces the first
 * one's per-epoch losses bit for bit; artifact-loaded models reproduce
 * the in-process Int outputs. The last stdout line is one JSON object
 * with the keys correct, attempted, failed and metrics; the exit
 * status is 1 when any check failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <sched.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hh"

using namespace mixq;
using namespace perfbench;

// ------------------------------------------------------ shared helpers

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint32_t
Trace::name(const std::string& name)
{
    auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end())
        return uint32_t(it - names_.begin());
    names_.push_back(name);
    return uint32_t(names_.size() - 1);
}

std::vector<double>
Trace::durationsUs(const std::string& name) const
{
    std::vector<double> out;
    auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end())
        return out;
    const uint32_t id = uint32_t(it - names_.begin());
    for (const std::vector<Span>& log : logs_)
        for (const Span& s : log)
            if (s.name == id)
                out.push_back(usBetween(s.t0, s.t1));
    return out;
}

bool
Trace::write(const std::string& path) const
{
    std::ofstream f(path);
    f << "id,name,parent,req,start_us,duration_us\n";
    Clock::time_point origin = Clock::time_point::max();
    for (const std::vector<Span>& log : logs_)
        for (const Span& s : log)
            origin = std::min(origin, s.t0);
    for (size_t t = 0; t < kThreads; ++t)
        for (size_t i = 0; i < logs_[t].size(); ++i) {
            const Span& s = logs_[t][i];
            f << ((uint64_t(t) << 40) | (i + 1)) << ',' << names_[s.name]
              << ',' << s.parent << ',' << s.req << ','
              << usBetween(origin, s.t0) << ',' << usBetween(s.t0, s.t1)
              << '\n';
        }
    return bool(f);
}

void
Report::fail(const std::string& why, size_t n)
{
    failed += n;
    std::fprintf(stderr, "check failed (%zu): %s\n", n, why.c_str());
}

bool
bitEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void
setOmpThreads(int n)
{
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
}

int
hardwareThreads()
{
    // A cpuset can leave the process fewer CPUs than the machine has.
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, int(std::thread::hardware_concurrency()));
}

} // namespace perfbench

namespace {

// About 40% of the cnn server's saturated capacity with its two OpenMP
// threads (the traced run measures that capacity and prints the share):
// queueing shows in the latency, yet a host that runs at half speed for
// a while does not push the server into overload.
constexpr double kCnnRate = 3000.0; //!< req/s
constexpr size_t kClosedWindow = 64;
constexpr size_t kSetupReps = 9;
constexpr double kArtifactBudgetS = 1.0; //!< per save / load series
constexpr double kShortPassS = 2.0;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
};

/** The server's OpenMP team: the load threads take the other cores. */
int
serveOmpThreads(ServeModel kind)
{
    const int loadThreads = kind == ServeModel::Cnn ? 2 : 1;
    return std::max(1, hardwareThreads() - loadThreads);
}

/**
 * The training team: one thread. QAT of this small model runs many
 * short parallel regions per step, and on a shared machine every wider
 * team waits at each barrier for whichever core the host took away;
 * with two threads the step time spread run to run beyond the bound.
 */
constexpr int kQatOmpThreads = 1;

std::string
artifactPath(const Options& o, const char* what)
{
    return o.outDir + "/" + what + "-" + std::to_string(getpid()) +
           ".mixqdepl";
}

/** Set up @p reps times; setup_s is the median, the last one is kept. */
std::unique_ptr<ServeSetup>
setupServe(ServeModel kind, const Options& o, size_t reps, double& setupS)
{
    std::vector<double> secs;
    std::unique_ptr<ServeSetup> s;
    for (size_t r = 0; r < reps; ++r) {
        s.reset();
        Clock::time_point a = Clock::now();
        s = std::make_unique<ServeSetup>(
            kind, o.seed,
            artifactPath(o, kind == ServeModel::Cnn ? "cnn" : "lstm"),
            serveOmpThreads(kind));
        secs.push_back(usBetween(a, Clock::now()) * 1e-6);
    }
    setupS = median(secs);
    return s;
}

ServePass
servePass(ServeSetup& s, double seconds, uint64_t seed, Trace* tr,
          const std::string& prefix, Report& rep)
{
    if (s.kind == ServeModel::Cnn)
        return s.openLoop(kCnnRate, seconds, seed, tr, prefix, rep);
    return s.closedLoop(kClosedWindow, seconds, seed, tr, prefix, rep);
}

E2e
e2eOf(const ServePass& p, double setupS, double saveMs, double loadMs)
{
    return E2e{setupS, p.itemsPerS, p.latencyP50Ms, p.latencyP99Ms,
               saveMs, loadMs};
}

void
printE2e(const char* label, const E2e& e)
{
    std::printf("%s: setup_s %.4f, items_per_s %.2f, latency_p50_ms "
                "%.4f, latency_p99_ms %.4f, artifact_save_ms %.4f, "
                "artifact_load_ms %.4f\n",
                label, e.setupS, e.itemsPerS, e.latencyP50Ms,
                e.latencyP99Ms, e.artifactSaveMs, e.artifactLoadMs);
}

std::vector<Metric>
e2eMetrics(const E2e& e)
{
    return {{"setup_s", e.setupS, "s"},
            {"items_per_s", e.itemsPerS, "1/s"},
            {"latency_p50_ms", e.latencyP50Ms, "ms"},
            {"latency_p99_ms", e.latencyP99Ms, "ms"}};
}

E2e
runUntraced(const Options& o, Report& rep)
{
    E2e e;
    const uint64_t sched = o.seed ^ 0x5eedULL;
    if (o.workload == "qat-export") {
        setOmpThreads(kQatOmpThreads);
        std::vector<double> secs;
        std::unique_ptr<QatBench> q;
        for (size_t r = 0; r < kSetupReps; ++r) {
            q.reset();
            Clock::time_point a = Clock::now();
            q = std::make_unique<QatBench>(o.seed, artifactPath(o, "qat"));
            secs.push_back(usBetween(a, Clock::now()) * 1e-6);
        }
        e = q->run(o.seconds, nullptr, rep);
        e.setupS = median(secs);
        return e;
    }
    const ServeModel kind = o.workload == "cnn-poisson" ? ServeModel::Cnn
                                                        : ServeModel::Lstm;
    double setupS = 0.0;
    auto s = setupServe(kind, o, kSetupReps, setupS);
    std::vector<double> saveUs, loadUs;
    s->measureArtifact(kArtifactBudgetS, rep, saveUs, loadUs);
    const ServePass p = servePass(*s, o.seconds, sched, nullptr, "", rep);
    // A second series after the pass spreads the artifact samples over
    // the run, so a slow spell of the host does not hold all of them.
    s->measureArtifact(kArtifactBudgetS, rep, saveUs, loadUs);
    return e2eOf(p, setupS, median(saveUs) * 1e-3, median(loadUs) * 1e-3);
}

/**
 * One served model in a traced run: the workload's own untraced and
 * traced passes (or one short traced pass when another workload is
 * named), then the layer probes and the serve.* metrics.
 */
void
traceServe(ServeModel kind, const Options& o, Trace& tr, Report& rep,
           E2e& untraced, E2e& traced)
{
    const bool primary =
        o.workload == (kind == ServeModel::Cnn ? "cnn-poisson"
                                               : "lstm-saturated");
    const std::string prefix = kind == ServeModel::Cnn ? "cnn." : "lstm.";
    const uint64_t sched = o.seed ^ 0x5eedULL;
    double setupS = 0.0, saveMs = 0.0, loadMs = 0.0;
    auto s = setupServe(kind, o, 1, setupS);
    if (primary) {
        std::vector<double> saveUs, loadUs;
        s->measureArtifact(kArtifactBudgetS, rep, saveUs, loadUs);
        saveMs = median(saveUs) * 1e-3;
        loadMs = median(loadUs) * 1e-3;
        untraced = e2eOf(servePass(*s, o.seconds, sched, nullptr, "", rep),
                         setupS, saveMs, loadMs);
    }
    const ServePass p = servePass(*s, primary ? o.seconds : kShortPassS,
                                  sched, &tr, prefix, rep);
    if (primary)
        traced = e2eOf(p, setupS, saveMs, loadMs);
    // The cnn open loop's rate as a share of what the same server
    // sustains when it is never idle.
    const double capacity =
        kind == ServeModel::Cnn
            ? s->closedLoop(kClosedWindow, kShortPassS, sched, nullptr, "",
                            rep)
                  .itemsPerS
            : 0.0;
    s->stopServer();

    const double meanBatch =
        p.delta.batches ? double(p.delta.items) / double(p.delta.batches)
                        : 1.0;
    const ProbeResult pr = probeLayers(prefix, *s, meanBatch, tr, rep);
    const double settleUs = p.latencyP50Ms * 1e3;
    rep.addLayer(prefix + "serve.submit_us_p50",
                 tr.medianUs(prefix + "serve.submit"), "us");
    rep.addLayer(prefix + "serve.batch_items_mean", meanBatch, "items");
    rep.addLayer(prefix + "serve.batches", double(p.delta.batches),
                 "count");
    if (kind == ServeModel::Cnn) {
        rep.addLayer("cnn.serve.overhead_us_p50", settleUs - pr.runUsAtMean,
                     "us");
        rep.addLayer("cnn.serve.shed", double(p.delta.shed), "count");
        rep.addLayer("cnn.serve.expired", double(p.delta.expired), "count");
        rep.addLayer("cnn.serve.failed", double(p.delta.failed), "count");
        rep.addLayer("cnn.loadgen.late_us_p99", p.lateUsP99, "us");
        rep.addLayer("cnn.serve.saturated_items_per_s", capacity, "1/s");
        std::printf("capacity cnn.: saturated %.0f items/s with %d OpenMP "
                    "threads; the open loop's %.0f req/s is %.0f%% of it, "
                    "mean batch %.2f\n",
                    capacity, s->ompThreads, kCnnRate,
                    100.0 * kCnnRate / capacity, meanBatch);
    }

    // Reconciliation: time the steps do not account for, and time a
    // request spends outside the forward.
    const double gap = pr.runUsB16 - pr.stepSumUsB16;
    std::printf("reconcile %s: executor.step_sum_us.b16 %.1f us vs "
                "executor.run_us.b16 %.1f us -> %.1f us (%.1f%%) outside "
                "the steps\n",
                prefix.c_str(), pr.stepSumUsB16, pr.runUsB16, gap,
                100.0 * gap / pr.runUsB16);
    std::printf("reconcile %s: executor.run_us at the mean batch %.2f is "
                "%.1f us vs latency_p50 %.1f us -> %.1f us of queueing, "
                "coalescing wait, gather and scatter\n",
                prefix.c_str(), meanBatch, pr.runUsAtMean, settleUs,
                settleUs - pr.runUsAtMean);
}

void
runTraced(const Options& o, Trace& tr, Report& rep)
{
    E2e untraced, traced;
    traceServe(ServeModel::Cnn, o, tr, rep, untraced, traced);
    traceServe(ServeModel::Lstm, o, tr, rep, untraced, traced);
    {
        setOmpThreads(kQatOmpThreads);
        Clock::time_point a = Clock::now();
        QatBench q(o.seed, artifactPath(o, "qat"));
        const double setupS = usBetween(a, Clock::now()) * 1e-6;
        const bool primary = o.workload == "qat-export";
        // The untraced cycle also fixes the reference losses the
        // traced cycles must reproduce.
        E2e u = q.run(primary ? o.seconds : 0.0, nullptr, rep);
        E2e t = q.run(primary ? o.seconds : kShortPassS, &tr, rep);
        q.layerMetrics(tr, rep);
        if (primary) {
            untraced = u;
            traced = t;
            untraced.setupS = traced.setupS = setupS;
        }
    }
    printE2e("untraced", untraced);
    printE2e("traced", traced);
    const double dItems =
        100.0 * (traced.itemsPerS - untraced.itemsPerS) / untraced.itemsPerS;
    const double dP50 = 100.0 * (traced.latencyP50Ms - untraced.latencyP50Ms) /
                        untraced.latencyP50Ms;
    std::printf("tracing overhead: items_per_s %+.2f%%, latency_p50_ms "
                "%+.2f%%\n",
                dItems, dP50);
    rep.addLayer("trace.items_per_s_delta_pct", dItems, "%");
    rep.addLayer("trace.latency_p50_delta_pct", dP50, "%");
}

void
printMachine(const Options& o)
{
    std::string isa;
    auto flag = [&](bool on, const char* name) {
        if (on)
            isa += std::string(isa.empty() ? "" : ",") + name;
    };
    __builtin_cpu_init();
    flag(__builtin_cpu_supports("sse4.2"), "sse4.2");
    flag(__builtin_cpu_supports("avx"), "avx");
    flag(__builtin_cpu_supports("avx2"), "avx2");
    flag(__builtin_cpu_supports("fma"), "fma");
    flag(__builtin_cpu_supports("avx512f"), "avx512f");
    flag(__builtin_cpu_supports("avx512bw"), "avx512bw");
    flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
#ifdef __clang__
    const char* compiler = "clang " __clang_version__;
#else
    const char* compiler = "gcc " __VERSION__;
#endif
    std::printf("machine: nproc %d, isa %s, compiler %s, build %s, "
                "omp threads: cnn server %d, lstm server %d, qat %d, "
                "probes as their server; "
                "load threads: cnn 2 (generator, collector), lstm 1; "
                "workload %s, seed %llu, seconds %.3g, trace %d\n",
                hardwareThreads(), isa.c_str(), compiler,
                MIXQ_BENCH_BUILD_TYPE, serveOmpThreads(ServeModel::Cnn),
                serveOmpThreads(ServeModel::Lstm), kQatOmpThreads,
                o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
                int(o.trace));
}

/** The result line: metric values printed with every digit. */
void
printResult(const Report& rep, const std::vector<Metric>& metrics)
{
    std::string m;
    for (const Metric& x : metrics) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", x.name.c_str(),
                      std::isfinite(x.value) ? x.value : 0.0,
                      x.unit.c_str());
        m += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                rep.failed == 0 ? "true" : "false", rep.attempted,
                rep.failed, m.c_str());
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload cnn-poisson|lstm-saturated|"
                 "qat-export --seed N --seconds S --trace 0|1 "
                 "[--out-dir D]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::stoull(v);
        else if (k == "--seconds")
            o.seconds = std::stod(v);
        else if (k == "--trace")
            o.trace = v != "0";
        else if (k == "--out-dir")
            o.outDir = v;
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || o.seconds <= 0.0 ||
        (o.workload != "cnn-poisson" && o.workload != "lstm-saturated" &&
         o.workload != "qat-export"))
        return usage(argv[0]);
    std::filesystem::create_directories(o.outDir);
    setOmpThreads(hardwareThreads());
    printMachine(o);

    Report rep;
    E2e e;
    try {
        if (!o.trace) {
            e = runUntraced(o, rep);
            rep.e2e = e2eMetrics(e);
        } else {
            Trace tr;
            runTraced(o, tr, rep);
            const std::string path = o.outDir + "/trace-" + o.workload +
                                     "-seed" + std::to_string(o.seed) +
                                     ".csv";
            if (!tr.write(path))
                std::fprintf(stderr, "could not write %s\n", path.c_str());
            else
                std::printf("spans written to %s\n", path.c_str());
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "benchmark aborted: %s\n", ex.what());
        return 1;
    }
    const std::vector<Metric>& metrics = o.trace ? rep.layer : rep.e2e;
    for (const Metric& m : metrics)
        std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!o.trace) {
        // Numbers the workload descriptions name that are not bounded
        // metrics: fail_frac is 0 on a correct run, and the artifact
        // timings (~1 ms of file I/O and decode) spread wider run to run
        // on a shared host than the largest bound allows.
        std::printf("%-44s %16.6f (failed / attempted)\n", "fail_frac",
                    double(rep.failed) / double(std::max<size_t>(
                                             rep.attempted, 1)));
        std::printf("%-44s %16.6f ms\n%-44s %16.6f ms\n",
                    "artifact_save_ms", e.artifactSaveMs,
                    "artifact_load_ms", e.artifactLoadMs);
        if (o.workload == "qat-export")
            std::printf("%-44s %16.6f ms (latency_p50_ms)\n"
                        "%-44s %16.6f 1/s\n",
                        "train_step_ms", e.latencyP50Ms,
                        "train_images_per_s", e.trainImagesPerS);
    }
    printResult(rep, metrics);
    return rep.failed == 0 ? 0 : 1;
}
