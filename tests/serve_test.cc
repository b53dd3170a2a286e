/**
 * @file
 * Batched inference server tests. The heart is batching invariance:
 * the Int backend's integer accumulation is per output column and
 * every float epilogue is per-element, so a request served alone must
 * be *bit-identical* to the same request inside any coalesced batch —
 * checked for the CNN (MiniResNet, batch axis 0) and both time-major
 * sequence models (LstmLm, GruTagger, batch axis 1) across worker
 * OMP thread counts. Around it: concurrency (ragged producers, no
 * lost or duplicated responses), shutdown mid-flight (every future
 * settles), work-conserving coalescing (a lone request never waits
 * for a batch to fill; maxBatch 1 serves one request per batch),
 * request validation, and inference-only Conv+BN folding
 * (serve/bn_fold.hh) staying bit-identical on the Int backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "nn/trainer.hh"
#include "serve/bn_fold.hh"
#include "serve/fault.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace mixq {
namespace {

void
expectBitEqual(const Tensor& got, const Tensor& ref)
{
    ASSERT_EQ(got.shape(), ref.shape());
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "index " << i;
}

/** Contiguous item slice of a batch-axis-0 tensor [N, ...]. */
Tensor
sliceAxis0(const Tensor& x, size_t off, size_t k)
{
    std::vector<size_t> s = x.shape();
    s[0] = k;
    Tensor o(std::move(s));
    size_t row = x.size() / x.dim(0);
    std::copy_n(x.data() + off * row, k * row, o.data());
    return o;
}

/** Item-column slice of a batch-axis-1 tensor [T, N, ...]. */
Tensor
sliceAxis1(const Tensor& x, size_t off, size_t k)
{
    std::vector<size_t> s = x.shape();
    s[1] = k;
    Tensor o(std::move(s));
    size_t t = x.dim(0), n = x.dim(1);
    size_t inner = x.size() / (t * n);
    for (size_t tt = 0; tt < t; ++tt)
        std::copy_n(x.data() + (tt * n + off) * inner, k * inner,
                    o.data() + tt * k * inner);
    return o;
}

/** Disarms on scope exit so a failing ASSERT cannot leak an armed
    plan into the next test. */
struct ArmedPlan
{
    explicit ArmedPlan(const FaultPlan& p) { armFaultPlan(p); }
    ~ArmedPlan() { disarmFaultPlan(); }
};

/** QAT-calibrate @p model on @p x and switch it to the Int backend. */
void
toIntBackend(Module& model, const Tensor& x)
{
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model.params());
    model.setActQuant(cfg.actBits, true);
    model.forward(x, true); // calibrate
    qat.finalize();
    applyInferBackend(model, InferBackend::Int, &qat);
}

/**
 * Serve every composition of @p data through a fresh one-worker
 * server and require each response bit-identical to the same request
 * run alone (@p refs, computed by direct forwards). The fault
 * harness holds the worker on a sacrificial full-size first request
 * until the whole composition is queued behind it, so the
 * work-conserving gather takes the composition as one forward —
 * asserted through the batch count. With @p planned the server runs
 * the shared-model plan-execution path instead of the replica/arena
 * path — the references are still direct (scope-path) forwards, so
 * this is also the planned-vs-scope bit-equality check.
 */
void
checkCompositions(Module& model, const BatchTraits& traits,
                  const Tensor& data, int ompThreads,
                  const std::vector<std::vector<size_t>>& comps,
                  bool planned = false)
{
    auto slice = traits.batchAxis == 0 ? sliceAxis0 : sliceAxis1;
    for (const std::vector<size_t>& comp : comps) {
        size_t total = 0;
        for (size_t k : comp)
            total += k;

        std::vector<Tensor> reqs, refs;
        size_t off = 0;
        for (size_t k : comp) {
            reqs.push_back(slice(data, off, k));
            refs.push_back(model.forward(reqs.back(), false));
            off += k;
        }

        ServeOptions opt;
        opt.maxBatch = total;
        opt.ompThreads = ompThreads;
        FaultPlan hold;
        hold.holdAtBatch = 0;
        ArmedPlan armed(hold);
        std::unique_ptr<BatchServer> server;
        if (planned)
            server = std::make_unique<BatchServer>(model, size_t(1),
                                                   traits, opt);
        else
            server = std::make_unique<BatchServer>(
                std::vector<Module*>{&model}, traits, opt);
        // Full-size, so nothing queued behind it can join its batch.
        std::future<Tensor> sacrificial =
            server->submit(slice(data, 0, total)).future;
        std::vector<std::future<Tensor>> futs;
        for (Tensor& r : reqs)
            futs.push_back(server->submit(std::move(r)).future);
        releaseFaultHold();
        for (size_t i = 0; i < futs.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << "request " << i << " of " << comp.size()
                         << ", threads " << ompThreads << ", planned "
                         << planned);
            Tensor got = futs[i].get();
            expectBitEqual(got, refs[i]);
        }
        EXPECT_NO_THROW(sacrificial.get());
        server->stop(true);
        BatchServer::Stats st = server->stats();
        EXPECT_EQ(st.requests, comp.size() + 1);
        EXPECT_EQ(st.items, 2 * total);
        EXPECT_EQ(st.batches, 2u)
            << "the composition must run as exactly one batch";
        EXPECT_EQ(st.arenaOverflows, 0u);
        if (planned) {
            EXPECT_GT(st.planPeakBytes, 0u);
            EXPECT_GE(st.arenaCapacity, st.planPeakBytes);
            EXPECT_GT(st.scratchBytes, 0u);
        }
    }
}

std::vector<int>
threadCounts()
{
#ifdef _OPENMP
    return {1, 4, 8};
#else
    return {0};
#endif
}

const std::vector<std::vector<size_t>> kComps = {
    {1, 1},                     // pair of singles
    {3, 1, 2, 1},               // ragged batch of 7
    {1, 1, 1, 1, 1, 1, 1, 1},   // full batch of 8 singles
};

TEST(ServeBatching, MiniResNetRequestInvariantToCoalescing)
{
    Rng dataRng(81);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads); // for the reference forwards
#endif
        Rng rng(82);
        auto model = makeMiniResNet(4, rng);
        toIntBackend(*model, x);

        BatchTraits traits;
        traits.itemShape = {1, 3, 12, 12};
        for (bool planned : {false, true})
            checkCompositions(*model, traits, x, threads, kComps,
                              planned);
    }
}

TEST(ServeBatching, LstmLmRequestInvariantToCoalescing)
{
    size_t vocab = 20, t = 6;
    Rng dataRng(83);
    Tensor x({t, 8});
    for (float& v : x.span())
        v = float(int(dataRng.uniform(0.0, double(vocab) - 0.001)));

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        Rng rng(84);
        LstmLm lm(vocab, 10, 16, 2, rng);
        toIntBackend(lm, x);

        BatchTraits traits;
        traits.itemShape = {t, 1};
        traits.batchAxis = 1;
        traits.timeMajorOut = true;
        for (bool planned : {false, true})
            checkCompositions(lm, traits, x, threads, kComps,
                              planned);
    }
}

TEST(ServeBatching, GruTaggerRequestInvariantToCoalescing)
{
    size_t feat = 12, t = 6;
    Rng dataRng(85);
    Tensor x = Tensor::randn({t, 8, feat}, dataRng, 1.0);

    for (int threads : threadCounts()) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        Rng rng(86);
        GruTagger tagger(feat, 16, 2, 5, rng);
        toIntBackend(tagger, x);

        BatchTraits traits;
        traits.itemShape = {t, 1, feat};
        traits.batchAxis = 1;
        traits.timeMajorOut = true;
        for (bool planned : {false, true})
            checkCompositions(tagger, traits, x, threads, kComps,
                              planned);
    }
}

TEST(ServeConcurrency, RaggedProducersAllSettleCorrectly)
{
    Rng dataRng(87);
    Tensor pool = Tensor::randn({16, 3, 12, 12}, dataRng, 1.0);
    for (float& v : pool.span())
        v = v < 0.0f ? -v : v;

    Rng rng(88);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, pool);

    // Pre-compute the alone-served reference of every request the
    // producers will send (the model belongs to the worker once the
    // server is up).
    constexpr size_t kProducers = 4, kPerProducer = 12;
    std::vector<std::vector<Tensor>> reqs(kProducers);
    std::vector<std::vector<Tensor>> refs(kProducers);
    for (size_t p = 0; p < kProducers; ++p) {
        for (size_t i = 0; i < kPerProducer; ++i) {
            size_t k = 1 + (p + i) % 3; // ragged 1..3
            size_t off = (3 * i + p) % (16 - k);
            reqs[p].push_back(sliceAxis0(pool, off, k));
            refs[p].push_back(
                model->forward(reqs[p].back(), false));
        }
    }

    ServeOptions opt;
    opt.maxBatch = 8;
    BatchServer server({model.get()},
                       BatchTraits{{1, 3, 12, 12}, 0, false}, opt);

    std::vector<std::vector<std::future<Tensor>>> futs(kProducers);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < kPerProducer; ++i)
                futs[p].push_back(
                    server.submit(std::move(reqs[p][i])).future);
        });
    for (std::thread& t : producers)
        t.join();

    size_t totalItems = 0;
    for (size_t p = 0; p < kProducers; ++p)
        for (size_t i = 0; i < kPerProducer; ++i) {
            SCOPED_TRACE(testing::Message()
                         << "producer " << p << " request " << i);
            ASSERT_EQ(futs[p][i].wait_for(std::chrono::seconds(30)),
                      std::future_status::ready)
                << "lost response";
            Tensor got = futs[p][i].get();
            expectBitEqual(got, refs[p][i]);
            totalItems += got.dim(0);
        }

    server.stop(true);
    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, kProducers * kPerProducer);
    EXPECT_EQ(st.items, totalItems);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.batches, st.requests);
}

/**
 * Stop a one-worker server at @p threads OpenMP threads while
 * requests are queued behind a held batch, and require every future
 * to settle: the queued ones fail, none of them runs.
 */
void
checkStopMidFlight(Module& model, const Tensor& x, int threads)
{
    ServeOptions opt;
    opt.maxBatch = 4;
    opt.ompThreads = threads;
    // Keep requests queued at stop time: the fault harness holds the
    // worker on a sacrificial full-size request (batch 1, after a
    // warm-up request) while the rest queue behind it, and lets it go
    // only once stop() has begun.
    FaultPlan hold;
    hold.holdAtBatch = 1;
    ArmedPlan armed(hold);
    BatchServer server({&model},
                       BatchTraits{{1, 3, 12, 12}, 0, false}, opt);
    server.submit(sliceAxis0(x, 0, 1)).future.get();

    Tensor full({4, 3, 12, 12});
    for (size_t i = 0; i < 4; ++i)
        std::copy_n(x.data(), x.size(), full.data() + i * x.size());
    std::future<Tensor> sacrificial = server.submit(full).future;
    awaitFaultHold();
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 40; ++i)
        futs.push_back(server.submit(sliceAxis0(x, 0, 1)).future);
    std::thread stopper([&] { server.stop(/*drain=*/false); });
    // stop() has begun once the server refuses a submission; probes
    // accepted before that stay queued and fail with the rest.
    std::vector<std::future<Tensor>> probes;
    for (;;) {
        SubmitResult r = server.submit(sliceAxis0(x, 0, 1));
        if (!r.accepted())
            break;
        probes.push_back(std::move(r.future));
        std::this_thread::yield();
    }
    releaseFaultHold();
    stopper.join();
    for (std::future<Tensor>& f : probes)
        EXPECT_THROW(f.get(), ServeError);

    size_t served = 0, rejected = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        // stop() joined the workers, so every future must already be
        // settled — a zero-wait poll is the no-hang guard.
        ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "future " << i << " left hanging";
        try {
            Tensor got = futs[i].get();
            EXPECT_EQ(got.dim(0), 1u);
            ++served;
        } catch (const std::runtime_error&) {
            ++rejected;
        }
    }
    EXPECT_EQ(served + rejected, futs.size());
    EXPECT_EQ(served, 0u) << "requests queued at stop must not run";

    // Besides the warm-up, the held sacrificial request ran as the
    // only batch.
    EXPECT_NO_THROW(sacrificial.get());
    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.batches, 2u);
    EXPECT_EQ(st.requests, 2u);

    // Submissions after stop are rejected, not enqueued.
    std::future<Tensor> late = server.submit(sliceAxis0(x, 0, 1)).future;
    EXPECT_THROW(late.get(), std::runtime_error);
}

TEST(ServeShutdown, StopMidFlightSettlesEveryFuture)
{
    Rng dataRng(89);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(90);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    for (int threads : threadCounts()) {
        SCOPED_TRACE(testing::Message() << "omp threads " << threads);
        checkStopMidFlight(*model, x, threads);
    }
}

TEST(ServeShutdown, SubmitVsStopHammerIsDeterministic)
{
    // Producers race submit() against stop(): whatever interleaving
    // the scheduler picks, each submit must come back with a coherent
    // verdict — Accepted (the future settles with a value or a
    // structured stop error) or Rejected (the future already failed,
    // nothing was enqueued) — and nothing may hang, crash, or settle
    // twice. Several rounds shake out different interleavings.
    Rng dataRng(101);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(102);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    constexpr size_t kProducers = 4;
    constexpr size_t kPerProducer = 25;
    for (int round = 0; round < 3; ++round) {
        ServeOptions opt;
        opt.maxBatch = 4;
        BatchServer server({model.get()},
                           BatchTraits{{1, 3, 12, 12}, 0, false}, opt);

        std::vector<std::vector<SubmitResult>> results(kProducers);
        std::vector<std::thread> producers;
        for (size_t p = 0; p < kProducers; ++p)
            producers.emplace_back([&, p] {
                for (size_t i = 0; i < kPerProducer; ++i)
                    results[p].push_back(
                        server.submit(sliceAxis0(x, 0, 1)));
            });
        // Stop mid-burst, racing the producers.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + round * 2));
        server.stop(/*drain=*/false);
        for (std::thread& t : producers)
            t.join();

        size_t served = 0, stopped = 0, rejected = 0;
        for (size_t p = 0; p < kProducers; ++p)
            for (size_t i = 0; i < results[p].size(); ++i) {
                SubmitResult& r = results[p][i];
                SCOPED_TRACE(testing::Message()
                             << "round " << round << " producer " << p
                             << " request " << i);
                ASSERT_EQ(r.future.wait_for(std::chrono::seconds(30)),
                          std::future_status::ready)
                    << "future left hanging across stop()";
                try {
                    Tensor got = r.future.get();
                    EXPECT_EQ(r.status, ServeStatus::Accepted);
                    EXPECT_EQ(got.dim(0), 1u);
                    ++served;
                } catch (const ServeError& e) {
                    EXPECT_EQ(e.code(), ServeError::Code::Stopped);
                    (r.status == ServeStatus::Rejected ? rejected
                                                       : stopped)++;
                }
            }
        EXPECT_EQ(served + stopped + rejected,
                  kProducers * kPerProducer);
        BatchServer::Stats st = server.stats();
        EXPECT_EQ(st.requests, served);
        EXPECT_EQ(st.accepted, served + stopped);
    }
}

TEST(ServeCoalescing, MaxBatchOneServesOneRequestPerBatch)
{
    Rng dataRng(91);
    Tensor x = Tensor::randn({2, 3, 12, 12}, dataRng, 1.0);
    Rng rng(92);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    ServeOptions opt;
    opt.maxBatch = 1; // degenerate: never coalesce
    BatchServer server({model.get()},
                       BatchTraits{{1, 3, 12, 12}, 0, false}, opt);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(server.submit(sliceAxis0(x, i % 2, 1)).future);
    for (std::future<Tensor>& f : futs)
        f.get();
    server.stop(true);

    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, 6u);
    EXPECT_EQ(st.batches, 6u) << "maxBatch 1 must not coalesce";
}

// Coalescing is work-conserving: an idle worker starts a lone request
// at once instead of waiting for a batch to fill, whatever the
// (ignored) ServeOptions::deadlineUs says.
TEST(ServeCoalescing, LoneRequestNeverWaitsForABatchToFill)
{
    Rng dataRng(103);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(104);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);
    Tensor ref = model->forward(x, false);

    ServeOptions opt;
    opt.maxBatch = 8;
    opt.deadlineUs = 60'000'000;
    for (bool planned : {false, true}) {
        SCOPED_TRACE(testing::Message() << "planned " << planned);
        std::unique_ptr<BatchServer> server;
        if (planned)
            server = std::make_unique<BatchServer>(
                *model, size_t(1), BatchTraits{{1, 3, 12, 12}, 0, false},
                opt);
        else
            server = std::make_unique<BatchServer>(
                std::vector<Module*>{model.get()},
                BatchTraits{{1, 3, 12, 12}, 0, false}, opt);
        // The first request also waits out the worker's warm-up; the
        // second finds the server idle.
        expectBitEqual(server->submit(Tensor(x)).future.get(), ref);
        auto t0 = std::chrono::steady_clock::now();
        std::future<Tensor> lone = server->submit(Tensor(x)).future;
        ASSERT_EQ(lone.wait_for(std::chrono::seconds(1)),
                  std::future_status::ready)
            << "a lone request waited for a batch to fill";
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        EXPECT_LT(ms, 500.0);
        expectBitEqual(lone.get(), ref);
        server->stop(true);
        EXPECT_EQ(server->stats().batches, 2u);
    }
}

TEST(ServeValidation, BadRequestsFailTheirFutureOnly)
{
    Rng dataRng(93);
    Tensor x = Tensor::randn({1, 3, 12, 12}, dataRng, 1.0);
    Rng rng(94);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);

    ServeOptions opt;
    opt.maxBatch = 4;
    BatchServer server({model.get()},
                       BatchTraits{{1, 3, 12, 12}, 0, false}, opt);

    EXPECT_THROW(
        server.submit(Tensor({1, 3, 10, 10})).future.get(), // wrong dims
        std::invalid_argument);
    EXPECT_THROW(
        server.submit(Tensor({3, 12, 12})).future.get(), // wrong rank
        std::invalid_argument);
    EXPECT_THROW(
        server.submit(Tensor({5, 3, 12, 12})).future.get(), // > maxBatch
        std::invalid_argument);

    // The server still serves good requests afterwards.
    Tensor got = server.submit(sliceAxis0(x, 0, 1)).future.get();
    EXPECT_EQ(got.dim(0), 1u);
    server.stop(true);
}

// ------------------------------------------------------------------
// Conv+BN folding: the fold replicates BatchNorm2d's eval arithmetic
// per element inside the conv epilogue, so outputs stay bit-identical
// on every backend; unfolding restores the original graph.
// ------------------------------------------------------------------

TEST(ServeBnFold, FoldIsBitIdenticalOnIntAndFakeQuant)
{
    Rng dataRng(95);
    Tensor x = Tensor::randn({5, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(96);
    auto model = makeMiniResNet(4, rng);
    // Give the BN layers non-trivial running stats before folding.
    model->forward(x, true);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();

    InferenceSession sess(*model, &qat, InferBackend::Int);
    Tensor intRef = sess.run(x);
    sess.setBackend(InferBackend::FakeQuant);
    Tensor fqRef = sess.run(x);
    sess.setBackend(InferBackend::Int);

    size_t folded = foldBatchNormForEval(*model);
    EXPECT_GT(folded, 0u);
    EXPECT_EQ(foldBatchNormForEval(*model), 0u) << "must be idempotent";

    Tensor intFolded = sess.run(x);
    expectBitEqual(intFolded, intRef);

    sess.setBackend(InferBackend::FakeQuant);
    Tensor fqFolded = sess.run(x);
    ASSERT_EQ(fqFolded.shape(), fqRef.shape());
    for (size_t i = 0; i < fqRef.size(); ++i)
        ASSERT_NEAR(fqFolded[i], fqRef[i], 1e-5f) << "index " << i;

    size_t unfolded = unfoldBatchNormForEval(*model);
    EXPECT_EQ(unfolded, folded);
    Tensor fqBack = sess.run(x);
    expectBitEqual(fqBack, fqRef);
    sess.setBackend(InferBackend::Int);
    Tensor intBack = sess.run(x);
    expectBitEqual(intBack, intRef);
}

TEST(ServeBnFold, FoldedModelServesBitIdentically)
{
    Rng dataRng(97);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(98);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);
    ASSERT_GT(foldBatchNormForEval(*model), 0u);

    BatchTraits traits;
    traits.itemShape = {1, 3, 12, 12};
    for (bool planned : {false, true})
        checkCompositions(*model, traits, x, 0, {{3, 1, 2, 1}},
                          planned);
}

TEST(ServePlanned, TwoReplicasOverOneModelServeConcurrently)
{
    Rng dataRng(99);
    Tensor pool = Tensor::randn({16, 3, 12, 12}, dataRng, 1.0);
    for (float& v : pool.span())
        v = v < 0.0f ? -v : v;

    Rng rng(100);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, pool);

    std::vector<Tensor> reqs, refs;
    for (size_t i = 0; i < 24; ++i) {
        size_t k = 1 + i % 3;
        size_t off = (5 * i) % (16 - k);
        reqs.push_back(sliceAxis0(pool, off, k));
        refs.push_back(model->forward(reqs.back(), false));
    }

    // Two planned workers share the one model; both read its packed
    // panels concurrently while owning private slabs and scratch.
    ServeOptions opt;
    opt.maxBatch = 4;
    BatchServer server(*model, 2, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);
    std::vector<std::future<Tensor>> futs;
    for (Tensor& r : reqs)
        futs.push_back(server.submit(std::move(r)).future);
    for (size_t i = 0; i < futs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "request " << i);
        Tensor got = futs[i].get();
        expectBitEqual(got, refs[i]);
    }
    server.stop(true);
    BatchServer::Stats st = server.stats();
    EXPECT_EQ(st.requests, reqs.size());
    EXPECT_EQ(st.arenaOverflows, 0u);
}

// A worker whose batches alternate between the one-thread shape (b1,
// b2, b3 at 4 threads) and the team shape (b16) keeps serving
// solo-identical answers, and in Debug builds its steady-state
// zero-allocation assertion (armed from the third batch on) holds for
// both shapes.
TEST(ServePlanned, AlternatingTeamShapesServeBitIdentically)
{
    constexpr size_t kMax = 16;
    const size_t kSizes[] = {1, kMax, 2, 3};
    Rng dataRng(105);
    Tensor pool = Tensor::randn({kMax, 3, 12, 12}, dataRng, 1.0);
    for (float& v : pool.span())
        v = v < 0.0f ? -v : v;
    Rng rng(106);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, pool);
    std::vector<Tensor> refs;
    for (size_t n : kSizes)
        refs.push_back(model->forward(sliceAxis0(pool, 0, n), false));

    ServeOptions opt;
    opt.maxBatch = kMax;
    opt.ompThreads = 4;
    BatchServer server(*model, 1, BatchTraits{{1, 3, 12, 12}, 0, false},
                       opt);
    for (int i = 0; i < 8; ++i) {
        SCOPED_TRACE(testing::Message() << "batch " << i);
        // One request in flight at a time: batch i is request i.
        expectBitEqual(
            server.submit(sliceAxis0(pool, 0, kSizes[i % 4])).future.get(),
            refs[i % 4]);
    }
    server.stop(true);
    EXPECT_EQ(server.stats().batches, 8u);
}

} // namespace
} // namespace mixq
