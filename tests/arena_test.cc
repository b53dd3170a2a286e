/**
 * @file
 * Arena allocator and ahead-of-time plan unit tests: bump-allocation
 * mechanics, the thread-local operator-new redirect, the scoped
 * heap-allocation counter, liveness-overlap rejection in
 * ServePlan::validate(), the greedy offset assignment against an
 * analytic hand case, plan byte-stability across replans, and the
 * headline property — a warmed-up Int-backend forward under an
 * ArenaScope performs zero real-heap allocations on the calling
 * thread and still produces bit-identical outputs. The PlanExecutor
 * tests pin its team choice (a batch of at most one item per thread
 * runs without a team), bit-equality with solo forwards at every
 * batch size and thread count, and zero allocation as batches
 * alternate between the one-thread and the team shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "nn/trainer.hh"
#include "serve/arena.hh"
#include "serve/executor.hh"
#include "serve/planner.hh"
#include "util/rng.hh"

namespace mixq {
namespace {

TEST(Arena, BumpAllocAlignmentAndReset)
{
    Arena a(1024);
    EXPECT_EQ(a.capacity(), 1024u);
    EXPECT_EQ(a.used(), 0u);

    void* p = a.alloc(10, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(a.contains(p));
    EXPECT_EQ(uintptr_t(p) % 8, 0u);

    void* q = a.alloc(100, 64);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(uintptr_t(q) % 64, 0u);
    EXPECT_GT(a.used(), 100u);
    size_t usedBefore = a.used();

    // Over-capacity allocation fails (heap fallback is the caller's
    // job) and leaves the arena untouched.
    EXPECT_EQ(a.alloc(2048, 8), nullptr);
    EXPECT_EQ(a.used(), usedBefore);

    a.reset();
    EXPECT_EQ(a.used(), 0u);
    EXPECT_GE(a.highWater(), usedBefore);
    EXPECT_EQ(a.allocCount(), 2u);

    // The recycled block hands out the same addresses again.
    void* p2 = a.alloc(10, 8);
    EXPECT_EQ(p2, p);

    int heap = 7;
    EXPECT_FALSE(a.contains(&heap));
}

TEST(Arena, ScopeRedirectsCallingThreadAllocations)
{
    Arena a(1 << 16);
    uint64_t heapBefore = heapAllocCount();
    uint64_t arenaBefore = arenaAllocCount();

    float* inArena = nullptr;
    {
        ArenaScope scope(a);
        inArena = new float[32];
        // The redirect served this from the arena, not the heap.
    }
    ASSERT_NE(inArena, nullptr);
    EXPECT_TRUE(a.contains(inArena));
    EXPECT_EQ(heapAllocCount(), heapBefore);
    EXPECT_GT(arenaAllocCount(), arenaBefore);

    // Deleting an arena pointer is a no-op (the block is recycled
    // wholesale); deleting while the arena is live must not free.
    delete[] inArena;
    EXPECT_GT(a.used(), 0u);

    // Outside the scope, new goes back to the real heap.
    float* onHeap = new float[32];
    EXPECT_FALSE(a.contains(onHeap));
    EXPECT_GT(heapAllocCount(), heapBefore);
    delete[] onHeap;
}

TEST(Arena, ScopedHeapAllocCountSeesHeapTraffic)
{
    ScopedHeapAllocCount c;
    EXPECT_EQ(c.count(), 0u);
    char* p = new char[100];
    // Keep the pointer observable so the optimizer cannot elide the
    // new/delete pair (C++14 allocation elision).
    asm volatile("" : : "r"(p) : "memory");
    EXPECT_GE(c.count(), 1u);
    EXPECT_GE(c.bytes(), 100u);
    delete[] p;
}

namespace {

PlanBuffer
buf(const char* name, size_t bytes, size_t def, size_t lastUse,
    size_t offset = 0)
{
    PlanBuffer b;
    b.name = name;
    b.shape = {bytes / sizeof(float)};
    b.bytes = bytes;
    b.def = def;
    b.lastUse = lastUse;
    b.offset = offset;
    return b;
}

} // namespace

TEST(ServePlanValidate, RejectsOverlapOfLiveBuffers)
{
    ServePlan p;
    p.buffers.push_back(buf("a", 256, 0, 1, 0));
    p.buffers.push_back(buf("b", 256, 1, 2, 0)); // alive with a, same
                                                 // bytes — invalid
    p.peakBytes = 1024;
    std::string why;
    EXPECT_FALSE(p.validate(&why));
    EXPECT_NE(why.find("overlap"), std::string::npos);

    p.buffers[1].offset = 256; // disjoint ranges — valid
    EXPECT_TRUE(p.validate(&why)) << why;

    // Non-overlapping lifetimes may share bytes.
    p.buffers[1].def = 2;
    p.buffers[1].lastUse = 3;
    p.buffers[1].offset = 0;
    EXPECT_TRUE(p.validate(&why)) << why;

    // A buffer past peakBytes is invalid even without overlap.
    p.buffers[1].offset = 1000;
    EXPECT_FALSE(p.validate(&why));
    EXPECT_NE(why.find("peakBytes"), std::string::npos);
}

TEST(AssignArenaOffsets, MatchesAnalyticHandCase)
{
    // Chain a -> b -> c: a and b overlap, b and c overlap, a and c
    // do not — c reuses a's bytes, b packs above the larger of them.
    std::vector<PlanBuffer> bufs;
    bufs.push_back(buf("a", 1000, 0, 1));
    bufs.push_back(buf("b", 500, 1, 2));
    bufs.push_back(buf("c", 900, 2, 2));
    size_t peak = assignArenaOffsets(bufs);

    EXPECT_EQ(bufs[0].offset, 0u);
    EXPECT_EQ(bufs[2].offset, 0u); // reuses a's range
    EXPECT_EQ(bufs[1].offset, 1024u); // align64(1000)
    EXPECT_EQ(peak, 1536u); // align64(1024 + 500)

    ServePlan p;
    p.buffers = bufs;
    p.peakBytes = peak;
    std::string why;
    EXPECT_TRUE(p.validate(&why)) << why;
}

TEST(Planner, MiniResNetPlanIsValidAndByteStable)
{
    Rng rng(71);
    auto model = makeMiniResNet(4, rng);
    ServePlan p1 = planServeForward(*model, {8, 3, 12, 12});

    ASSERT_EQ(p1.outShape, (std::vector<size_t>{8, 4}));
    EXPECT_GT(p1.peakBytes, 0u);
    EXPECT_FALSE(p1.buffers.empty());
    EXPECT_FALSE(p1.net.layers.empty());
    std::string why;
    EXPECT_TRUE(p1.validate(&why)) << why;
    // The packed peak must beat keeping every buffer alive at once.
    size_t total = 0;
    for (const PlanBuffer& b : p1.buffers)
        total += b.bytes;
    EXPECT_LT(p1.peakBytes, total);

    // Replanning is deterministic field for field.
    ServePlan p2 = planServeForward(*model, {8, 3, 12, 12});
    ASSERT_EQ(p2.buffers.size(), p1.buffers.size());
    EXPECT_EQ(p2.peakBytes, p1.peakBytes);
    for (size_t i = 0; i < p1.buffers.size(); ++i) {
        EXPECT_EQ(p2.buffers[i].name, p1.buffers[i].name);
        EXPECT_EQ(p2.buffers[i].shape, p1.buffers[i].shape);
        EXPECT_EQ(p2.buffers[i].def, p1.buffers[i].def);
        EXPECT_EQ(p2.buffers[i].lastUse, p1.buffers[i].lastUse);
        EXPECT_EQ(p2.buffers[i].offset, p1.buffers[i].offset);
    }
}

TEST(Planner, RnnModelsPlanWithTimeMajorShapes)
{
    Rng rng(72);
    size_t vocab = 20, t = 6, n = 8;
    LstmLm lm(vocab, 10, 16, 2, rng);
    ServePlan lp = planServeForward(lm, {t, n});
    EXPECT_EQ(lp.outShape, (std::vector<size_t>{t * n, vocab}));
    std::string why;
    EXPECT_TRUE(lp.validate(&why)) << why;

    GruTagger tagger(12, 16, 2, 5, rng);
    ServePlan gp = planServeForward(tagger, {t, n, 12});
    EXPECT_EQ(gp.outShape, (std::vector<size_t>{t * n, 5}));
    EXPECT_TRUE(gp.validate(&why)) << why;

    LstmClassifier clf(vocab, 10, 16, 1, 2, rng);
    ServePlan cp = planServeForward(clf, {t, n});
    EXPECT_EQ(cp.outShape, (std::vector<size_t>{n, 2}));
    EXPECT_TRUE(cp.validate(&why)) << why;
}

// The headline property: after unscoped warmup at the serving shape,
// an Int-backend forward inside an ArenaScope allocates nothing on
// the calling thread's real heap, and the arena-served run is
// bit-identical to the heap-served one.
TEST(Arena, SteadyStateIntForwardAllocatesZeroHeap)
{
    Rng dataRng(73);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(74);
    auto model = makeMiniResNet(4, rng);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();
    InferenceSession sess(*model, &qat, InferBackend::Int);

    // Warmup: grow every layer scratch container to steady-state
    // capacity on the real heap (the serve warmup contract).
    sess.run(x);
    Tensor ref = sess.run(x);

    ServePlan plan = planServeForward(*model, {8, 3, 12, 12});
    Arena arena(4 * plan.peakBytes + (1 << 20));
    Tensor got;
    uint64_t heapAllocs = 0, arenaAllocs = 0;
    {
        ArenaScope scope(arena);
        ScopedHeapAllocCount heap;
        uint64_t a0 = arenaAllocCount();
        got = sess.run(x);
        heapAllocs = heap.count();
        arenaAllocs = arenaAllocCount() - a0;
    }
    EXPECT_EQ(heapAllocs, 0u)
        << "steady-state forward hit the real heap";
    EXPECT_GT(arenaAllocs, 0u);
    EXPECT_EQ(arena.overflowCount(), 0u);
    EXPECT_LE(arena.highWater(), arena.capacity());

    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "index " << i;

    // Drop the arena-backed tensor before the arena dies, then make
    // sure the block recycles for another identical run.
    got = Tensor();
    arena.reset();
    {
        ArenaScope scope(arena);
        got = sess.run(x);
    }
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "after reset, index " << i;
    got = Tensor();
}

// The executed plan's stronger property: a steady-state PlanExecutor
// run allocates nothing at all — zero real-heap allocations AND zero
// bump-arena traffic — because every activation lands at its planned
// slab offset and all scratch was ctor-sized. Offsets are stable
// across requests, and the result is bit-identical to the scope-path
// eval forward.
TEST(PlanExecutor, SteadyStateRunAllocatesNothingAtAll)
{
    Rng dataRng(75);
    Tensor x = Tensor::randn({8, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(76);
    auto model = makeMiniResNet(4, rng);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);
    Tensor ref = model->forward(x, false);

    PlanExecutor exec(*model, {1, 3, 12, 12}, 0, 8);
    // The input buffer's slab range is recycled by later buffers
    // (liveness packing), so every run re-gathers its input — the
    // same contract the server's gatherInto follows.
    // Warmup: the GEMM backend's thread_local packing buffers reach
    // steady capacity on this thread during the first runs.
    std::copy_n(x.data(), x.size(), exec.inputData());
    exec.run(8);
    std::copy_n(x.data(), x.size(), exec.inputData());
    exec.run(8);
    const float* outBefore = exec.outputData();

    ScopedHeapAllocCount heap;
    uint64_t a0 = arenaAllocCount();
    std::copy_n(x.data(), x.size(), exec.inputData());
    exec.run(8);
    EXPECT_EQ(heap.count(), 0u)
        << "steady-state planned run hit the real heap";
    EXPECT_EQ(arenaAllocCount(), a0)
        << "planned run must not touch any bump arena";

    // Offsets are the planner's — stable across requests.
    EXPECT_EQ(exec.outputData(), outBefore);

    ASSERT_EQ(exec.outputShape(8), ref.shape());
    const float* got = exec.outputData();
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "index " << i;
}

// Weight sharing: a second executor over the same model packs
// nothing — both read the very same PackedQMat panel storage — so n
// replicas cost one model plus n (slab + scratch) plans.
TEST(PlanExecutor, ReplicasShareOneWeightCopy)
{
    Rng dataRng(77);
    Tensor x = Tensor::randn({4, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;

    Rng rng(78);
    auto model = makeMiniResNet(4, rng);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(x, true); // calibrate
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);

    std::vector<const PackedQMat*> packs;
    forEachNamedModule(*model, [&](const std::string&, Module& m) {
        if (auto* c = dynamic_cast<Conv2d*>(&m))
            packs.push_back(&c->packedQWeights());
        else if (auto* l = dynamic_cast<Linear*>(&m))
            packs.push_back(&l->packedQWeights());
    });
    ASSERT_FALSE(packs.empty());

    PlanExecutor a(*model, {1, 3, 12, 12}, 0, 4);
    std::vector<uint64_t> counts;
    for (const PackedQMat* p : packs) {
        EXPECT_GE(p->packCount(), 1u);
        counts.push_back(p->packCount());
    }

    // The second replica finds every panel current: zero repacks.
    PlanExecutor b(*model, {1, 3, 12, 12}, 0, 4);
    for (size_t i = 0; i < packs.size(); ++i)
        EXPECT_EQ(packs[i]->packCount(), counts[i])
            << "second executor repacked panel " << i;

    // Private slabs, shared weights, identical bits.
    EXPECT_NE(a.inputData(), b.inputData());
    std::copy_n(x.data(), x.size(), a.inputData());
    std::copy_n(x.data(), x.size(), b.inputData());
    a.run(4);
    b.run(4);
    const float* ya = a.outputData();
    const float* yb = b.outputData();
    size_t n = shapeSize(a.outputShape(4));
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(ya[i], yb[i]) << "index " << i;
}

/** Calibrate @p model on @p x and switch it to the Int backend. */
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

/** A MiniResNet calibrated on @p x and switched to the Int backend. */
std::unique_ptr<Module>
intMiniResNet(uint64_t seed, const Tensor& x)
{
    Rng rng(seed);
    auto model = makeMiniResNet(4, rng);
    toIntBackend(*model, x);
    return model;
}

std::vector<int>
ompThreadCounts()
{
#ifdef _OPENMP
    return {1, 4, 8};
#else
    return {1};
#endif
}

int
maxThreads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

void
setThreads(int n)
{
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
}

// An item-parallel step runs on the calling thread alone while the
// batch has at most one item per thread, and on the whole team above
// that; a Linear step gets the team once its GEMM reaches
// kRowSplitMinMacs, at any batch size. Both choices depend on their
// arguments only.
TEST(PlanExecutor, TeamWidthIsAPureFunctionOfTheStepShape)
{
    for (int t : {1, 2, 3, 4, 8, 16}) {
        for (size_t n = 1; n <= size_t(t); ++n)
            EXPECT_EQ(PlanExecutor::teamFor(n, t), 1)
                << "items " << n << ", threads " << t;
        for (size_t n = size_t(t) + 1; n <= 32; ++n)
            EXPECT_EQ(PlanExecutor::teamFor(n, t), t)
                << "items " << n << ", threads " << t;
        const size_t k = PlanExecutor::kRowSplitMinMacs;
        EXPECT_EQ(PlanExecutor::rowTeamFor(1, t), 1);
        EXPECT_EQ(PlanExecutor::rowTeamFor(k - 1, t), 1);
        EXPECT_EQ(PlanExecutor::rowTeamFor(k, t), t);
        EXPECT_EQ(PlanExecutor::rowTeamFor(64 * k, t), t);
    }
}

/**
 * Run @p exec at every batch size 1..maxItems on the first n items of
 * @p x and require each item's rows bit-equal to its solo forward in
 * @p refs. Batch axis 0 outputs are [n, ...] by item; time-major
 * outputs are [T*n, C] by timestep (row t*n + i).
 */
void
expectEveryBatchMatchesSolo(PlanExecutor& exec, const Tensor& x,
                            size_t batchAxis,
                            const std::vector<Tensor>& refs)
{
    const size_t kMax = exec.maxItems();
    const size_t t = batchAxis == 0 ? 1 : x.dim(0);
    const size_t inner = x.size() / (t * kMax);
    const size_t cols = refs[0].size() / t;
    for (size_t n = 1; n <= kMax; ++n) {
        SCOPED_TRACE(testing::Message() << "items " << n);
        for (size_t tt = 0; tt < t; ++tt)
            std::copy_n(x.data() + tt * kMax * inner, n * inner,
                        exec.inputData() + tt * n * inner);
        exec.run(n);
        ASSERT_EQ(shapeSize(exec.outputShape(n)), n * t * cols);
        const float* y = exec.outputData();
        for (size_t i = 0; i < n; ++i)
            for (size_t tt = 0; tt < t; ++tt)
                for (size_t c = 0; c < cols; ++c)
                    ASSERT_EQ(y[(tt * n + i) * cols + c],
                              refs[i][tt * cols + c])
                        << "item " << i << ", step " << tt
                        << ", col " << c;
    }
}

// Every batch size — the one-thread shape up to T items and the team
// shape above it — is bit-equal to each item's solo eval forward, at
// every thread count, for a CNN, an MLP whose wide Linear takes the
// team at every size, and an LSTM (whose recurrent steps keep the
// team at every size), and run() leaves the caller's team width as
// it found it.
TEST(PlanExecutor, EveryBatchSizeMatchesSoloForwardsAtEveryThreadCount)
{
    constexpr size_t kMax = 8, kSeq = 5, kVocab = 20;
    Rng dataRng(80);
    Tensor img = Tensor::randn({kMax, 3, 12, 12}, dataRng, 1.0);
    for (float& v : img.span())
        v = v < 0.0f ? -v : v;
    auto cnn = intMiniResNet(81, img);
    std::vector<Tensor> cnnRefs;
    for (size_t i = 0; i < kMax; ++i) {
        Tensor xi({1, 3, 12, 12});
        std::copy_n(img.data() + i * xi.size(), xi.size(), xi.data());
        cnnRefs.push_back(cnn->forward(xi, false));
    }

    Tensor tokens({kSeq, kMax});
    for (float& v : tokens.span())
        v = float(int(dataRng.uniform(0.0, double(kVocab) - 0.001)));
    Rng lmRng(84);
    LstmLm lm(kVocab, 10, 16, 2, lmRng);
    toIntBackend(lm, tokens);
    std::vector<Tensor> lmRefs;
    for (size_t i = 0; i < kMax; ++i) {
        Tensor xi({kSeq, 1});
        for (size_t tt = 0; tt < kSeq; ++tt)
            xi[tt] = tokens[tt * kMax + i];
        lmRefs.push_back(lm.forward(xi, false));
    }

    // Its first Linear is wide enough to take the team at batch 1
    // (rowTeamFor), the second is not.
    Rng mlpRng(85);
    Sequential mlp;
    mlp.add(std::make_unique<Flatten>());
    mlp.add(std::make_unique<Linear>(432, 384, mlpRng));
    mlp.add(std::make_unique<ReLU>());
    mlp.add(std::make_unique<Linear>(384, 4, mlpRng));
    ASSERT_GE(size_t(432 * 384), PlanExecutor::kRowSplitMinMacs);
    toIntBackend(mlp, img);
    std::vector<Tensor> mlpRefs;
    for (size_t i = 0; i < kMax; ++i) {
        Tensor xi({1, 3, 12, 12});
        std::copy_n(img.data() + i * xi.size(), xi.size(), xi.data());
        mlpRefs.push_back(mlp.forward(xi, false));
    }

    const int saved = maxThreads();
    for (int threads : ompThreadCounts()) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        setThreads(threads);
        PlanExecutor cnnExec(*cnn, {1, 3, 12, 12}, 0, kMax);
        expectEveryBatchMatchesSolo(cnnExec, img, 0, cnnRefs);
        EXPECT_EQ(maxThreads(), threads);
        PlanExecutor mlpExec(mlp, {1, 3, 12, 12}, 0, kMax);
        expectEveryBatchMatchesSolo(mlpExec, img, 0, mlpRefs);
        EXPECT_EQ(maxThreads(), threads);
        PlanExecutor lmExec(lm, {kSeq, 1}, 1, kMax);
        expectEveryBatchMatchesSolo(lmExec, tokens, 1, lmRefs);
        EXPECT_EQ(maxThreads(), threads);
    }
    setThreads(saved);
}

// The zero-allocation contract holds as steady-state batches alternate
// between the one-thread shape (b1, b2, b3) and the team shape (b16)
// at 4 threads, once the executor was warmed the way the server warms
// a worker (b1 and b16).
TEST(PlanExecutor, AlternatingTeamShapesAllocateNothing)
{
    constexpr size_t kMax = 16;
    Rng dataRng(82);
    Tensor x = Tensor::randn({kMax, 3, 12, 12}, dataRng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;
    auto model = intMiniResNet(83, x);

    const int saved = maxThreads();
    setThreads(4);
    ASSERT_EQ(PlanExecutor::teamFor(1, maxThreads()), 1);
    PlanExecutor exec(*model, {1, 3, 12, 12}, 0, kMax);
    for (int round = 0; round < 2; ++round)
        for (size_t n : {size_t(1), kMax}) {
            std::copy_n(x.data(), x.size(), exec.inputData());
            exec.run(n);
        }

    ScopedHeapAllocCount heap;
    uint64_t a0 = arenaAllocCount();
    for (int round = 0; round < 2; ++round)
        for (size_t n : {size_t(1), kMax, size_t(2), size_t(3)}) {
            std::copy_n(x.data(), x.size(), exec.inputData());
            exec.run(n);
        }
    EXPECT_EQ(heap.count(), 0u)
        << "alternating b1/b16/b2/b3 planned runs hit the real heap";
    EXPECT_EQ(arenaAllocCount(), a0);
    setThreads(saved);
}

/** A module the planner has no shape-transfer rule for. */
struct UnmodeledModule : Module
{
    Tensor forward(const Tensor& x, bool) override { return x; }
    Tensor backward(const Tensor& gy) override { return gy; }
};

// The planner refuses silently-wrong plans: an unmodeled module
// panics with its dotted path so the failure names the offender.
TEST(PlannerDeath, UnmodeledModulePanicsWithDottedPath)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(79);
    Sequential seq;
    seq.add(std::make_unique<Linear>(8, 8, rng));
    seq.add(std::make_unique<UnmodeledModule>());
    EXPECT_DEATH(planServeForward(seq, {2, 8}),
                 "unmodeled module type .* at '1'");
}

} // namespace
} // namespace mixq
