/**
 * @file
 * Load/latency bench of the batched inference server (serve/). Two
 * modes share one binary:
 *
 * Open-loop mode (default): a Poisson arrival process submits
 * single-item requests at --rate req/s for --seconds, independent of
 * service times (so queueing delay is visible, unlike a closed loop
 * that self-throttles). Reports p50/p99 settle latency and served
 * items/s.
 *
 * Budget mode (--benchmark_format=json): speaks enough of the
 * google-benchmark CLI/JSON protocol for tools/check_perf_budget.py
 * to drive it like the bench_micro_* binaries — runs the requested
 * repetitions of "serve/single" (closed loop, one request in flight,
 * maxBatch 1), "serve/batched" (saturated queue, maxBatch 16,
 * per-batch scoped-arena allocation) and "serve/planned" (same
 * saturated workload through the shared-model plan-executing ctor:
 * statically placed slab, zero steady-state allocation) and emits
 * median items_per_second aggregates. Two gated ratios: coalescing
 * must beat one-at-a-time dispatch, and plan execution must beat the
 * scoped-arena batch path it replaces.
 *
 * Memory-report mode (--memory-report): builds a deliberately
 * weight-heavy model (three Linears, ~20 MB of float weights),
 * stands up two successive single-worker plan-executing servers over
 * the SAME model object, and prints one JSON object with the plan /
 * slab / scratch byte counts and VmRSS after each step. The point is
 * the replica memory contract tools/check_serve_memory.py gates in
 * CI: because replicas share one immutable model (locked PackedQMat
 * panels packed once), the marginal cost of the second server is a
 * slab + scratch, not a second copy of the weights.
 *
 * Overload mode (--overload): measures the saturated closed-loop
 * capacity, then offers 3x that rate open-loop against a bounded
 * queue under the Shed policy and prints one JSON object with the
 * baseline rate, offered rate, goodput, shed/expired counts and the
 * queue high-water mark. tools/check_serve_goodput.py gates on it:
 * goodput under 3x overload must stay within 10% of the no-overload
 * rate and the queue must respect its bound.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "infer/session.hh"
#include "nn/models.hh"
#include "quant/qconfig.hh"
#include "serve/server.hh"
#include "util/rng.hh"

using namespace mixq;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One single-item CNN request tensor ({1, C, H, W}, nonnegative). */
Tensor
makeItem(Rng& rng)
{
    Tensor x = Tensor::randn({1, 3, 12, 12}, rng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;
    return x;
}

/** MiniResNet calibrated and switched to the Int serving backend. */
std::unique_ptr<Sequential>
makeServableModel(uint64_t seed)
{
    Rng rng(seed);
    auto model = makeMiniResNet(4, rng, 8);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    Rng calRng(seed + 1);
    Tensor cal = Tensor::randn({8, 3, 12, 12}, calRng, 1.0);
    for (float& v : cal.span())
        v = v < 0.0f ? -v : v;
    model->forward(cal, true); // calibrate activation ranges
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);
    return model;
}

BatchTraits
cnnTraits()
{
    BatchTraits t;
    t.itemShape = {1, 3, 12, 12};
    t.batchAxis = 0;
    return t;
}

/**
 * Closed loop, one request in flight, batches of one: the
 * no-coalescing baseline every serving stack degenerates to when
 * batching is off. Returns served items/s.
 */
double
runSingle(Module& model, const std::vector<Tensor>& items)
{
    ServeOptions opt;
    opt.maxBatch = 1;
    BatchServer srv({&model}, cnnTraits(), opt);
    for (size_t i = 0; i < 8; ++i) // warm the request path
        srv.submit(items[i % items.size()]).future.get();
    Clock::time_point t0 = Clock::now();
    for (const Tensor& x : items)
        srv.submit(x).future.get();
    double secs = secondsSince(t0);
    srv.stop(true);
    return double(items.size()) / secs;
}

/** Warm @p srv, then push every item through the saturated queue
    (all submitted up front, the worker forms maxBatch-item batches)
    and return served items/s. */
double
pumpSaturated(BatchServer& srv, const std::vector<Tensor>& items,
              size_t maxBatch)
{
    {
        std::vector<std::future<Tensor>> warm;
        for (size_t i = 0; i < 2 * maxBatch; ++i)
            warm.push_back(srv.submit(items[i % items.size()]).future);
        for (auto& f : warm)
            f.get();
    }
    Clock::time_point t0 = Clock::now();
    std::vector<std::future<Tensor>> futs;
    futs.reserve(items.size());
    for (const Tensor& x : items)
        futs.push_back(srv.submit(x).future);
    for (auto& f : futs)
        f.get();
    return double(items.size()) / secondsSince(t0);
}

/**
 * Saturated queue through the legacy coalescing path (per-batch
 * Tensors placed in a scoped arena). Returns served items/s.
 */
double
runBatched(Module& model, const std::vector<Tensor>& items,
           size_t maxBatch)
{
    ServeOptions opt;
    opt.maxBatch = maxBatch;
    BatchServer srv({&model}, cnnTraits(), opt);
    double rate = pumpSaturated(srv, items, maxBatch);
    srv.stop(true);
    return rate;
}

/**
 * The same saturated workload through the plan-executing shared-model
 * ctor: activations land at planner offsets in one pre-faulted slab,
 * steady-state batches allocate nothing. Returns served items/s.
 */
double
runPlanned(Module& model, const std::vector<Tensor>& items,
           size_t maxBatch)
{
    ServeOptions opt;
    opt.maxBatch = maxBatch;
    BatchServer srv(model, /*replicas=*/1, cnnTraits(), opt);
    double rate = pumpSaturated(srv, items, maxBatch);
    srv.stop(true);
    return rate;
}

// ---------------------------------------------------------- budget mode

struct BenchDef
{
    const char* name;
    double (*run)(Module&, const std::vector<Tensor>&);
};

double
runSingleBench(Module& m, const std::vector<Tensor>& items)
{
    return runSingle(m, items);
}

double
runBatchedBench(Module& m, const std::vector<Tensor>& items)
{
    return runBatched(m, items, 16);
}

double
runPlannedBench(Module& m, const std::vector<Tensor>& items)
{
    return runPlanned(m, items, 16);
}

constexpr BenchDef kBenches[] = {
    {"serve/single", runSingleBench},
    {"serve/batched", runBatchedBench},
    {"serve/planned", runPlannedBench},
};

int
runBudgetMode(const std::string& filter, int repetitions)
{
    std::regex re(filter.empty() ? std::string(".*") : filter);
    auto model = makeServableModel(91);
    Rng itemRng(92);
    std::vector<Tensor> items;
    for (int i = 0; i < 192; ++i)
        items.push_back(makeItem(itemRng));

    std::string out;
    out += "{\n  \"context\": {\"executable\": \"bench_serve\"},\n";
    out += "  \"benchmarks\": [\n";
    bool first = true;
    for (const BenchDef& b : kBenches) {
        if (!std::regex_match(std::string(b.name), re))
            continue;
        std::vector<double> rates;
        for (int r = 0; r < repetitions; ++r)
            rates.push_back(b.run(*model, items));
        std::sort(rates.begin(), rates.end());
        double median = rates[rates.size() / 2];
        if (rates.size() % 2 == 0)
            median = 0.5 * (median + rates[rates.size() / 2 - 1]);
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s    {\"name\": \"%s_median\", \"run_name\": \"%s\",\n"
            "     \"run_type\": \"aggregate\", "
            "\"aggregate_name\": \"median\",\n"
            "     \"iterations\": %zu, \"real_time\": %.1f,\n"
            "     \"cpu_time\": %.1f, \"time_unit\": \"ns\",\n"
            "     \"items_per_second\": %.3f}",
            first ? "" : ",\n", b.name, b.name, items.size(),
            1e9 / median, 1e9 / median, median);
        out += buf;
        first = false;
    }
    out += "\n  ]\n}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

// ---------------------------------------------------- memory-report mode

/** Resident set size from /proc/self/status, in kB (0 off-Linux). */
size_t
vmRssKb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    size_t kb = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmRSS: %zu", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

/**
 * A deliberately weight-heavy servable MLP (~20 MB of float weights
 * across three Linears) on the CNN item shape, calibrated and
 * switched to the Int backend. Activations are tiny next to the
 * weights, so RSS deltas between servers isolate the per-replica
 * cost (slab + scratch) from the shared model.
 */
std::unique_ptr<Sequential>
makeWeightHeavyModel(uint64_t seed)
{
    Rng rng(seed);
    auto model = std::make_unique<Sequential>();
    model->add(std::make_unique<Flatten>());
    model->add(std::make_unique<Linear>(432, 2048, rng));
    model->add(std::make_unique<ReLU>());
    model->add(std::make_unique<Linear>(2048, 2048, rng));
    model->add(std::make_unique<ReLU>());
    model->add(std::make_unique<Linear>(2048, 10, rng));
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    Rng calRng(seed + 1);
    Tensor cal = Tensor::randn({8, 3, 12, 12}, calRng, 1.0);
    for (float& v : cal.span())
        v = v < 0.0f ? -v : v;
    model->forward(cal, true);
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);
    return model;
}

int
runMemoryReport()
{
    auto model = makeWeightHeavyModel(95);
    size_t modelBytes = 0;
    for (const Param* p : model->params())
        modelBytes += p->w.size() * sizeof(float);
    Rng itemRng(96);
    Tensor item = makeItem(itemRng);

    ServeOptions opt;
    opt.maxBatch = 16;
    // First served request forces panel packing (first server) /
    // reuse (second server) plus the warmup batches, so each RSS
    // sample sees that server fully faulted in.
    size_t rssModelKb = vmRssKb();
    auto first = std::make_unique<BatchServer>(*model, size_t(1),
                                               cnnTraits(), opt);
    first->submit(item).future.get();
    size_t rssFirstKb = vmRssKb();
    auto second = std::make_unique<BatchServer>(*model, size_t(1),
                                                cnnTraits(), opt);
    second->submit(item).future.get();
    size_t rssSecondKb = vmRssKb();

    BatchServer::Stats st = first->stats();
    std::printf("{\n"
                "  \"model_bytes\": %zu,\n"
                "  \"plan_peak_bytes\": %zu,\n"
                "  \"slab_bytes\": %zu,\n"
                "  \"scratch_bytes\": %zu,\n"
                "  \"rss_model_kb\": %zu,\n"
                "  \"rss_after_first_kb\": %zu,\n"
                "  \"rss_after_second_kb\": %zu\n"
                "}\n",
                modelBytes, st.planPeakBytes, st.arenaCapacity,
                st.scratchBytes, rssModelKb, rssFirstKb, rssSecondKb);
    second->stop(true);
    first->stop(true);
    return 0;
}

// --------------------------------------------------------- overload mode

/**
 * Goodput under overload (--overload): measure the server's saturated
 * capacity closed-loop, then offer 3x that rate open-loop against a
 * bounded queue (maxQueueItems, Shed policy) and report both as one
 * JSON object for tools/check_serve_goodput.py. The gated contract:
 * admission control must protect throughput — the worker stays busy
 * serving the requests it keeps, so goodput (items/s that actually
 * settle with a value) under 3x overload stays within 10% of the
 * no-overload rate, while the queue never outgrows its bound.
 */
int
runOverloadReport(double seconds)
{
    auto model = makeServableModel(91);
    Rng itemRng(92);
    std::vector<Tensor> items;
    for (int i = 0; i < 512; ++i)
        items.push_back(makeItem(itemRng));

    // Baseline: saturated, unbounded queue, no shedding.
    double baseline = runBatched(*model, items, 16);

    constexpr size_t kMaxQueueItems = 64;
    ServeOptions opt;
    opt.maxBatch = 16;
    opt.maxQueueItems = kMaxQueueItems;
    opt.overload = OverloadPolicy::Shed;
    BatchServer srv({model.get()}, cnnTraits(), opt);
    for (size_t i = 0; i < 32; ++i) // warm the request path
        srv.submit(items[i % items.size()]).future.get();

    // Open loop at 3x capacity, paced in 1ms bursts so the offered
    // rate holds even when per-request gaps drop below scheduler
    // resolution.
    double offered = 3.0 * baseline;
    std::vector<std::future<Tensor>> futs;
    futs.reserve(size_t(offered * seconds) + 16);
    Clock::time_point t0 = Clock::now();
    size_t submitted = 0;
    while (secondsSince(t0) < seconds) {
        size_t due = size_t(secondsSince(t0) * offered);
        for (; submitted < due; ++submitted)
            futs.push_back(
                srv.submit(items[submitted % items.size()]).future);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    size_t served = 0, shedSeen = 0;
    for (auto& f : futs) {
        try {
            f.get();
            ++served;
        } catch (const ServeError&) {
            ++shedSeen;
        }
    }
    double elapsed = secondsSince(t0);
    srv.stop(true);
    BatchServer::Stats st = srv.stats();

    std::printf("{\n"
                "  \"baseline_items_per_second\": %.3f,\n"
                "  \"offered_items_per_second\": %.3f,\n"
                "  \"goodput_items_per_second\": %.3f,\n"
                "  \"submitted\": %zu,\n"
                "  \"served\": %zu,\n"
                "  \"shed\": %zu,\n"
                "  \"expired\": %zu,\n"
                "  \"queue_peak_items\": %zu,\n"
                "  \"max_queue_items\": %zu\n"
                "}\n",
                baseline, double(submitted) / elapsed,
                double(served) / elapsed, submitted, served, shedSeen,
                st.expired, st.queuePeakItems, kMaxQueueItems);
    return 0;
}

// -------------------------------------------------------- open-loop mode

int
runOpenLoop(double rate, double seconds, size_t maxBatch)
{
    auto model = makeServableModel(91);
    Rng itemRng(92);
    std::vector<Tensor> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(makeItem(itemRng));

    ServeOptions opt;
    opt.maxBatch = maxBatch;
    BatchServer srv({model.get()}, cnnTraits(), opt);
    for (size_t i = 0; i < 2 * maxBatch; ++i)
        srv.submit(pool[i % pool.size()]).future.get();

    struct Pending
    {
        std::future<Tensor> fut;
        Clock::time_point submitted;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> inflight;
    bool done = false;
    std::vector<double> latencyUs;

    // The collector settles futures in submission order; coalescing
    // is FIFO, so by the time the queue front resolves its batchmates
    // are resolved too and get() returns without a stale timestamp.
    std::thread collector([&] {
        for (;;) {
            Pending p;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk,
                        [&] { return done || !inflight.empty(); });
                if (inflight.empty())
                    return;
                p = std::move(inflight.front());
                inflight.pop_front();
            }
            p.fut.get();
            latencyUs.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - p.submitted)
                    .count());
        }
    });

    // Poisson arrivals: exponential inter-arrival gaps, scheduled
    // against absolute wall-clock targets so service time never
    // throttles the offered load (open loop).
    Rng arrivalRng(93);
    Clock::time_point t0 = Clock::now();
    Clock::time_point next = t0;
    size_t submitted = 0;
    while (secondsSince(t0) < seconds) {
        double gap = -std::log(1.0 - arrivalRng.uniform()) / rate;
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap));
        std::this_thread::sleep_until(next);
        Pending p;
        p.submitted = Clock::now();
        p.fut = srv.submit(pool[submitted % pool.size()]).future;
        ++submitted;
        {
            std::lock_guard<std::mutex> lk(mu);
            inflight.push_back(std::move(p));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_one();
    collector.join();
    double elapsed = secondsSince(t0);
    srv.stop(true);

    std::sort(latencyUs.begin(), latencyUs.end());
    auto pct = [&](double q) {
        if (latencyUs.empty())
            return 0.0;
        size_t i = size_t(q * double(latencyUs.size() - 1));
        return latencyUs[i];
    };
    BatchServer::Stats st = srv.stats();
    std::printf("open-loop Poisson: rate %.0f req/s for %.1f s, "
                "maxBatch %zu\n",
                rate, seconds, maxBatch);
    std::printf("served %zu requests in %zu batches "
                "(%.2f items/batch)\n",
                st.requests, st.batches,
                st.batches ? double(st.items) / double(st.batches)
                           : 0.0);
    std::printf("throughput %.1f items/s\n",
                double(latencyUs.size()) / elapsed);
    std::printf("latency p50 %.0f us, p99 %.0f us\n", pct(0.50),
                pct(0.99));
    std::printf("arena: capacity %zu B, high water %zu B, "
                "overflows %zu\n",
                st.arenaCapacity, st.arenaHighWater,
                st.arenaOverflows);
    return 0;
}

double
argValue(const std::string& arg, const char* key)
{
    return std::atof(arg.substr(std::strlen(key)).c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    bool jsonMode = false;
    bool memoryReport = false;
    bool overload = false;
    std::string filter;
    int repetitions = 1;
    double rate = 1500.0, seconds = 3.0;
    double maxBatch = 8.0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--benchmark_filter=", 0) == 0)
            filter = a.substr(std::strlen("--benchmark_filter="));
        else if (a.rfind("--benchmark_repetitions=", 0) == 0)
            repetitions = int(argValue(a, "--benchmark_repetitions="));
        else if (a.rfind("--benchmark_format=json", 0) == 0)
            jsonMode = true;
        else if (a == "--memory-report")
            memoryReport = true;
        else if (a == "--overload")
            overload = true;
        else if (a.rfind("--benchmark_", 0) == 0)
            continue; // aggregates-only etc.: always on here
        else if (a.rfind("--rate=", 0) == 0)
            rate = argValue(a, "--rate=");
        else if (a.rfind("--seconds=", 0) == 0)
            seconds = argValue(a, "--seconds=");
        else if (a.rfind("--max-batch=", 0) == 0)
            maxBatch = argValue(a, "--max-batch=");
        else {
            std::fprintf(stderr,
                         "usage: %s [--rate=R] [--seconds=S] "
                         "[--max-batch=B] | "
                         "--memory-report | "
                         "--overload [--seconds=S] | "
                         "google-benchmark budget flags\n",
                         argv[0]);
            return 2;
        }
    }
    if (memoryReport)
        return runMemoryReport();
    if (overload)
        return runOverloadReport(seconds);
    if (jsonMode)
        return runBudgetMode(filter, std::max(repetitions, 1));
    return runOpenLoop(rate, seconds, size_t(maxBatch));
}
