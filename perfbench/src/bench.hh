/**
 * @file
 * Shared pieces of the mixq benchmark harness: the clock and order
 * statistics, the in-memory span trace, the report every workload
 * fills, and the entry points of the three workloads and the layer
 * probes. main.cc documents the command line and the output.
 */

#ifndef MIXQ_PERFBENCH_BENCH_HH
#define MIXQ_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.hh"
#include "nn/trainer.hh"
#include "serve/server.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Nearest-rank quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One finished span: [t0, t1] of a named region. */
struct Span
{
    uint32_t name = 0;
    uint64_t parent = 0; //!< span id of the caller, 0 for a root
    uint64_t req = 0;    //!< request / step / cycle the span belongs to
    Clock::time_point t0, t1;
};

/**
 * Spans kept in memory and written out when the benchmark ends. Each
 * recording thread appends to its own log, so recording takes no lock;
 * span names are interned on the main thread before any recording
 * thread starts.
 */
class Trace
{
  public:
    static constexpr size_t kThreads = 2; //!< main + one collector

    /** Intern @p name; call before recording threads start. */
    uint32_t name(const std::string& name);

    /** Record a span on log @p thread; returns its id (never 0). */
    uint64_t add(size_t thread, uint32_t name, uint64_t parent,
                 uint64_t req, Clock::time_point t0,
                 Clock::time_point t1)
    {
        std::vector<Span>& log = logs_[thread];
        log.push_back(Span{name, parent, req, t0, t1});
        return (uint64_t(thread) << 40) | log.size();
    }

    /** Set the end of span @p id (for spans opened before their
        children are recorded). */
    void finish(uint64_t id, Clock::time_point t1)
    {
        logs_[id >> 40][(id & ((uint64_t(1) << 40) - 1)) - 1].t1 = t1;
    }

    /** Durations (µs) of every span called @p name. */
    std::vector<double> durationsUs(const std::string& name) const;

    /** Median duration (µs) of the spans called @p name. */
    double medianUs(const std::string& name) const
    {
        return median(durationsUs(name));
    }

    /** Write every span as CSV to @p path; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    std::vector<std::string> names_;
    std::vector<Span> logs_[kThreads];
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a benchmark run reports: end-to-end and per-layer metrics, the
 * count of checked operations and of those that failed. Any failure
 * makes the run incorrect.
 */
struct Report
{
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    size_t attempted = 0;
    size_t failed = 0;

    void addLayer(const std::string& name, double value,
                  const std::string& unit)
    {
        layer.push_back(Metric{name, value, unit});
    }

    /** Count @p n failed operations and say why on stderr. */
    void fail(const std::string& why, size_t n = 1);
};

/** The end-to-end metrics every workload reports (BENCHMARK.json). */
struct E2e
{
    double setupS = 0.0;
    double itemsPerS = 0.0;
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double artifactSaveMs = 0.0;
    double artifactLoadMs = 0.0;
    double trainImagesPerS = 0.0; //!< qat-export: images per step time
};

/** Bit-for-bit equality of shape and every float. */
bool bitEqual(const mixq::Tensor& a, const mixq::Tensor& b);

/** Set the calling thread's OpenMP team size (no-op without OpenMP). */
void setOmpThreads(int n);

/** CPUs this process may run on (its affinity mask; at least 1). */
int hardwareThreads();

// ------------------------------------------------------------ serving

enum class ServeModel
{
    Cnn,  //!< MiniResNet on ImageTask::Easy images
    Lstm, //!< LstmLm (vocab 256, embed 64, hidden 128, 2 layers, T 16)
};

/** Results of one serving pass (one open or closed loop). */
struct ServePass
{
    size_t attempted = 0;
    double itemsPerS = 0.0;
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double lateUsP99 = 0.0; //!< open loop: generator lateness
    mixq::BatchServer::Stats delta; //!< server counters of the pass
};

/** Owner of one served model, its request pool and its server. */
struct ServeSetup
{
    ServeSetup(ServeModel kind, uint64_t seed,
               const std::string& artifactPath, int ompThreads);
    ~ServeSetup();
    ServeSetup(const ServeSetup&) = delete;
    ServeSetup& operator=(const ServeSetup&) = delete;

    /** Save, then reload, the artifact for @p budgetS each, appending
        every save and load time (µs) to @p saveUs and @p loadUs. */
    void measureArtifact(double budgetS, Report& rep,
                         std::vector<double>& saveUs,
                         std::vector<double>& loadUs);

    /** Poisson open loop at @p rate req/s (single-item requests). */
    ServePass openLoop(double rate, double seconds, uint64_t seed,
                       Trace* tr, const std::string& prefix,
                       Report& rep);

    /** Closed loop from one thread with @p window requests in flight. */
    ServePass closedLoop(size_t window, double seconds, uint64_t seed,
                         Trace* tr, const std::string& prefix,
                         Report& rep);

    /** Stop the server (layer probes run on the idle model). */
    void stopServer();

    ServeModel kind;
    std::string artifactPath;
    int ompThreads;
    std::unique_ptr<mixq::Module> inProcess; //!< QAT-finalized Int model
    std::unique_ptr<mixq::QatContext> qat;   //!< its projection records
    std::unique_ptr<mixq::Module> served;    //!< artifact-loaded model
    mixq::BatchTraits traits;
    std::vector<mixq::Tensor> pool; //!< request items
    std::vector<mixq::Tensor> refs; //!< solo forward of each pool item
    std::unique_ptr<mixq::BatchServer> server;
};

/** Fresh, untrained model of @p kind (fixed architecture seed). */
std::unique_ptr<mixq::Module> makeServeModel(ServeModel kind);

// -------------------------------------------------------- layer probes

/**
 * Standalone per-layer timings of one served model: PlanExecutor run
 * time per batch size, every plan step at the maximum batch through
 * the layers' public prepareServe/forwardServe entries, and the int
 * kernels on each layer's packed weights. Metrics are prefixed with
 * @p prefix. The result carries the executor run times (µs) the
 * reconciliation needs, runUsAtMean interpolated at @p meanBatch.
 */
struct ProbeResult
{
    double runUsB1 = 0.0;
    double runUsB16 = 0.0;
    double stepSumUsB16 = 0.0;
    double runUsAtMean = 0.0;
};
ProbeResult probeLayers(const std::string& prefix, ServeSetup& s,
                        double meanBatch, Trace& tr, Report& rep);

// ---------------------------------------------------------------- QAT

struct QatState;

/** MSQ QAT of MiniResNet, deploy-artifact export and reload. */
class QatBench
{
  public:
    QatBench(uint64_t seed, const std::string& artifactPath);
    ~QatBench();
    QatBench(const QatBench&) = delete;
    QatBench& operator=(const QatBench&) = delete;

    /**
     * Train, export and reload for @p seconds (at least one cycle).
     * Untraced cycles call trainClassifier; traced cycles drive the
     * same public calls in the same order and record a span per call.
     */
    E2e run(double seconds, Trace* tr, Report& rep);

    /** train.*, quant.* and serial.* metrics from a traced run. */
    void layerMetrics(const Trace& tr, Report& rep) const;

  private:
    std::unique_ptr<QatState> st_;
};

} // namespace perfbench

#endif // MIXQ_PERFBENCH_BENCH_HH
