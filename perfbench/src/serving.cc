/**
 * @file
 * The two serving workloads. Each builds its model the way a deploy
 * does — calibrate, hard-project, switch to the Int backend, export a
 * deploy artifact — and serves the model reloaded from that artifact
 * through the shared-model BatchServer. Every response is compared bit
 * for bit with the in-process model's solo forward of the same item.
 *
 * cnn-poisson drives the server with a Poisson open loop and times
 * each request from its scheduled send time, so a stalled generator or
 * server shows up as latency instead of as fewer requests.
 * lstm-saturated keeps a fixed window of requests in flight from one
 * thread, so every batch is full.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "data/synth_images.hh"
#include "data/synth_seq.hh"
#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "serial/deploy.hh"
#include "util/rng.hh"

using namespace mixq;

namespace perfbench {

namespace {

constexpr size_t kCnnPool = 256;  //!< distinct request items
constexpr size_t kLstmPool = 128;
constexpr size_t kCalItems = 32;  //!< calibration batch
constexpr size_t kMaxBatch = 16;
constexpr long kCoalesceUs = 1000;
constexpr size_t kVocab = 256;
constexpr size_t kSeqLen = 16;
constexpr uint64_t kCnnModelSeed = 7;
constexpr uint64_t kLstmModelSeed = 11;

Clock::duration
fromUs(double us)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(us));
}

BatchServer::Stats
statsDelta(const BatchServer::Stats& a, const BatchServer::Stats& b)
{
    BatchServer::Stats d;
    d.requests = b.requests - a.requests;
    d.items = b.items - a.items;
    d.batches = b.batches - a.batches;
    d.shed = b.shed - a.shed;
    d.expired = b.expired - a.expired;
    d.failed = b.failed - a.failed;
    return d;
}

/** Outcome counters of one pass; folded into the report at the end. */
struct Outcomes
{
    size_t ok = 0, shed = 0, expired = 0, faulted = 0, wrong = 0;

    /** Settle one future: true when it held the expected value. */
    bool settle(std::future<Tensor>& fut, const Tensor& ref)
    {
        try {
            Tensor y = fut.get();
            if (!bitEqual(y, ref)) {
                ++wrong;
                return false;
            }
            ++ok;
            return true;
        } catch (const ServeError& e) {
            if (e.code() == ServeError::Code::Shed)
                ++shed;
            else if (e.code() == ServeError::Code::Expired)
                ++expired;
            else
                ++faulted;
        } catch (const std::exception&) {
            ++faulted;
        }
        return false;
    }

    void report(const std::string& what, Report& rep) const
    {
        if (shed)
            rep.fail(what + ": requests shed", shed);
        if (expired)
            rep.fail(what + ": requests expired", expired);
        if (faulted)
            rep.fail(what + ": requests failed", faulted);
        if (wrong)
            rep.fail(what + ": responses differ from the solo forward",
                     wrong);
    }
};

void
finishPass(ServePass& p, const Outcomes& o,
           const std::vector<double>& latUs, double wallUs,
           const BatchServer::Stats& s0, const BatchServer::Stats& s1,
           const std::string& what, Report& rep)
{
    p.itemsPerS = double(o.ok) / (wallUs * 1e-6);
    p.latencyP50Ms = quantile(latUs, 0.50) * 1e-3;
    p.latencyP99Ms = quantile(latUs, 0.99) * 1e-3;
    p.delta = statsDelta(s0, s1);
    rep.attempted += p.attempted;
    o.report(what, rep);
}

} // namespace

std::unique_ptr<Module>
makeServeModel(ServeModel kind)
{
    if (kind == ServeModel::Cnn) {
        Rng rng(kCnnModelSeed);
        return makeMiniResNet(imageTaskSpec(ImageTask::Easy).classes,
                              rng, 8);
    }
    Rng rng(kLstmModelSeed);
    return std::make_unique<LstmLm>(kVocab, 64, 128, 2, rng);
}

ServeSetup::ServeSetup(ServeModel k, uint64_t seed,
                       const std::string& path, int omp)
    : kind(k), artifactPath(path), ompThreads(omp)
{
    // Data: the request pool and the calibration batch.
    Tensor cal;
    if (kind == ServeModel::Cnn) {
        LabeledImages d =
            makeImageDataset(ImageTask::Easy, kCnnPool, seed);
        std::vector<size_t> item = d.images.shape();
        item[0] = 1;
        size_t len = d.images.size() / kCnnPool;
        for (size_t i = 0; i < kCnnPool; ++i) {
            Tensor x(item);
            std::memcpy(x.data(), d.images.data() + i * len,
                        len * sizeof(float));
            pool.push_back(std::move(x));
        }
        std::vector<size_t> cs = d.images.shape();
        cs[0] = kCalItems;
        cal = Tensor(cs);
        std::memcpy(cal.data(), d.images.data(),
                    cal.size() * sizeof(float));
        traits = BatchTraits{item, 0, false};
    } else {
        LmCorpus c = makeLmCorpus(kVocab, kLstmPool * kSeqLen, seed);
        for (size_t i = 0; i < kLstmPool; ++i) {
            Tensor x({kSeqLen, 1});
            for (size_t t = 0; t < kSeqLen; ++t)
                x[t] = float(c.tokens[i * kSeqLen + t]);
            pool.push_back(std::move(x));
        }
        cal = Tensor({kSeqLen, kCalItems});
        for (size_t t = 0; t < kSeqLen; ++t)
            for (size_t j = 0; j < kCalItems; ++j)
                cal[t * kCalItems + j] = pool[j][t];
        traits = BatchTraits{{kSeqLen, 1}, 1, true};
    }

    // Model: calibrate, hard-project, pack for the Int backend.
    inProcess = makeServeModel(kind);
    QConfig cfg;
    qat = std::make_unique<QatContext>(cfg);
    qat->attach(inProcess->params());
    inProcess->setActQuant(cfg.actBits, true);
    inProcess->forward(cal, true);
    qat->finalize();
    applyInferBackend(*inProcess, InferBackend::Int, qat.get());

    // Deploy: export, then serve the model reloaded from the artifact.
    saveDeployArtifact(artifactPath, *inProcess, *qat);
    served = makeServeModel(kind);
    size_t adopted = 0;
    LoadResult lr = tryLoadDeployArtifact(artifactPath, *served, adopted);
    if (!lr.ok())
        throw std::runtime_error("artifact reload failed: " + lr.message);

    // References: every pool item run alone through the in-process
    // model.
    refs.reserve(pool.size());
    for (const Tensor& x : pool)
        refs.push_back(inProcess->forward(x, false));

    ServeOptions opt;
    opt.maxBatch = kMaxBatch;
    opt.deadlineUs = kCoalesceUs;
    opt.ompThreads = ompThreads;
    server = std::make_unique<BatchServer>(*served, size_t(1), traits,
                                           opt);
    std::vector<std::future<Tensor>> warm;
    for (size_t i = 0; i < 2 * kMaxBatch; ++i)
        warm.push_back(server->submit(pool[i % pool.size()]).future);
    for (size_t i = 0; i < warm.size(); ++i)
        if (!bitEqual(warm[i].get(), refs[i % pool.size()]))
            throw std::runtime_error("warm-up response differs from the "
                                     "solo forward");
}

ServeSetup::~ServeSetup()
{
    stopServer();
    std::remove(artifactPath.c_str());
}

void
ServeSetup::stopServer()
{
    if (server)
        server->stop(true);
    server.reset();
}

void
ServeSetup::measureArtifact(double budgetS, Report& rep,
                            std::vector<double>& saveUs,
                            std::vector<double>& loadUs)
{
    Clock::time_point t0 = Clock::now();
    while (usBetween(t0, Clock::now()) < budgetS * 1e6) {
        Clock::time_point a = Clock::now();
        saveDeployArtifact(artifactPath, *inProcess, *qat);
        saveUs.push_back(usBetween(a, Clock::now()));
    }
    t0 = Clock::now();
    while (usBetween(t0, Clock::now()) < budgetS * 1e6) {
        std::unique_ptr<Module> fresh = makeServeModel(kind);
        size_t adopted = 0;
        Clock::time_point a = Clock::now();
        LoadResult lr = tryLoadDeployArtifact(artifactPath, *fresh,
                                              adopted);
        loadUs.push_back(usBetween(a, Clock::now()));
        rep.attempted += 2;
        if (!lr.ok())
            rep.fail("artifact load: " + lr.message, 2);
        else if (!bitEqual(fresh->forward(pool[0], false), refs[0]))
            rep.fail("reloaded model differs from the in-process one");
    }
}

ServePass
ServeSetup::openLoop(double rate, double seconds, uint64_t seed,
                     Trace* tr, const std::string& prefix, Report& rep)
{
    // The schedule comes from the seed alone: exponential gaps (a
    // Poisson process) and a uniform pick from the pool.
    Rng rng(seed);
    std::vector<double> dueUs;
    std::vector<uint32_t> pick;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform()) / rate * 1e6;
        if (t >= seconds * 1e6)
            break;
        dueUs.push_back(t);
        pick.push_back(uint32_t(rng.randint(0, long(pool.size()) - 1)));
    }
    const size_t n = dueUs.size();
    std::vector<std::future<Tensor>> futs(n);
    std::vector<double> lateUs(n), latUs;
    latUs.reserve(n);
    std::atomic<size_t> published{0};
    const uint32_t nSubmit = tr ? tr->name(prefix + "serve.submit") : 0;
    const uint32_t nReq = tr ? tr->name(prefix + "serve.request") : 0;

    ServePass p;
    p.attempted = n;
    Outcomes o;
    BatchServer::Stats s0 = server->stats();
    const Clock::time_point t0 = Clock::now() + fromUs(1000.0);
    Clock::time_point lastSettle = t0;

    // Collector: settles futures in submission order (the coalescer
    // is FIFO) and times each from its scheduled send time.
    std::thread collector([&] {
        for (size_t i = 0; i < n; ++i) {
            size_t have = published.load(std::memory_order_acquire);
            while (have <= i) {
                published.wait(have, std::memory_order_acquire);
                have = published.load(std::memory_order_acquire);
            }
            const Clock::time_point due = t0 + fromUs(dueUs[i]);
            bool good = o.settle(futs[i], refs[pick[i]]);
            lastSettle = Clock::now();
            if (tr)
                tr->add(1, nReq, 0, i, due, lastSettle);
            if (good)
                latUs.push_back(usBetween(due, lastSettle));
        }
    });

    for (size_t i = 0; i < n; ++i) {
        Tensor x = pool[pick[i]];
        const Clock::time_point due = t0 + fromUs(dueUs[i]);
        std::this_thread::sleep_until(due);
        const Clock::time_point a = Clock::now();
        SubmitResult r = server->submit(std::move(x));
        const Clock::time_point b = Clock::now();
        lateUs[i] = usBetween(due, a);
        if (tr)
            tr->add(0, nSubmit, 0, i, a, b);
        futs[i] = std::move(r.future);
        published.store(i + 1, std::memory_order_release);
        published.notify_one();
    }
    collector.join();

    p.lateUsP99 = quantile(lateUs, 0.99);
    finishPass(p, o, latUs, usBetween(t0, lastSettle), s0,
               server->stats(), prefix + "open loop", rep);
    return p;
}

ServePass
ServeSetup::closedLoop(size_t window, double seconds, uint64_t seed,
                       Trace* tr, const std::string& prefix,
                       Report& rep)
{
    struct Slot
    {
        std::future<Tensor> fut;
        Clock::time_point sent;
        uint32_t item = 0;
        uint64_t req = 0;
    };
    Rng rng(seed);
    std::vector<Slot> ring(window);
    std::vector<double> latUs;
    const uint32_t nSubmit = tr ? tr->name(prefix + "serve.submit") : 0;
    const uint32_t nReq = tr ? tr->name(prefix + "serve.request") : 0;

    ServePass p;
    Outcomes o;
    BatchServer::Stats s0 = server->stats();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = t0 + fromUs(seconds * 1e6);
    auto send = [&](Slot& s) {
        s.item = uint32_t(rng.randint(0, long(pool.size()) - 1));
        s.req = p.attempted++;
        Tensor x = pool[s.item];
        s.sent = Clock::now();
        SubmitResult r = server->submit(std::move(x));
        if (tr)
            tr->add(0, nSubmit, 0, s.req, s.sent, Clock::now());
        s.fut = std::move(r.future);
    };
    for (Slot& s : ring)
        send(s);

    Clock::time_point lastSettle = t0;
    for (size_t head = 0, live = window; live > 0;
         head = (head + 1) % window) {
        Slot& s = ring[head];
        if (!s.fut.valid())
            continue; // drained
        bool good = o.settle(s.fut, refs[s.item]);
        lastSettle = Clock::now();
        if (tr)
            tr->add(0, nReq, 0, s.req, s.sent, lastSettle);
        if (good)
            latUs.push_back(usBetween(s.sent, lastSettle));
        --live;
        if (lastSettle < end) {
            send(s);
            ++live;
        }
    }

    finishPass(p, o, latUs, usBetween(t0, lastSettle), s0,
               server->stats(), prefix + "closed loop", rep);
    return p;
}

} // namespace perfbench
