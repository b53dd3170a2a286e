/**
 * @file
 * Per-layer probes of a served model, run on the idle model after its
 * serving passes:
 *
 *  - executor: PlanExecutor::run at batch 1, 16 and around the mean
 *    batch the server formed;
 *  - steps: every plan step at batch 16, dispatched through the same
 *    public prepareServe/forwardServe entries the executor calls, at
 *    the planner's offsets in one slab — so the sum of the steps can be
 *    set against the executor's run time;
 *  - infer: qgemm16/qgemm on each int layer's packed weights at the
 *    lane count P that layer's serve forward hands the kernel, plus the
 *    quantize and rescale stages around it.
 *
 * Every timing is a span in the trace; the metrics are span medians.
 * Executor and step outputs are checked against the solo references.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "bench.hh"
#include "infer/qkernels.hh"
#include "nn/layers.hh"
#include "nn/rnn.hh"
#include "serve/executor.hh"
#include "serve/planner.hh"
#include "util/rng.hh"

using namespace mixq;

namespace perfbench {

namespace {

constexpr size_t kMaxItems = 16;
constexpr size_t kRunReps = 25;
constexpr size_t kKernelReps = 40;

/** Write pool items [0, b) into @p dst in the runtime input layout. */
void
gather(const ServeSetup& s, size_t b, float* dst)
{
    const size_t len = s.pool[0].size();
    if (s.traits.batchAxis == 0) {
        for (size_t j = 0; j < b; ++j)
            std::memcpy(dst + j * len, s.pool[j].data(),
                        len * sizeof(float));
        return;
    }
    const size_t t = s.traits.itemShape[0], inner = len / t;
    for (size_t tt = 0; tt < t; ++tt)
        for (size_t j = 0; j < b; ++j)
            std::memcpy(dst + (tt * b + j) * inner,
                        s.pool[j].data() + tt * inner,
                        inner * sizeof(float));
}

/** Items of a batch-@p b output @p y that differ from the references. */
size_t
mismatches(const ServeSetup& s, size_t b, const float* y)
{
    size_t bad = 0;
    const size_t len = s.refs[0].size();
    if (!s.traits.timeMajorOut) {
        for (size_t j = 0; j < b; ++j)
            bad += std::memcmp(y + j * len, s.refs[j].data(),
                               len * sizeof(float)) != 0;
        return bad;
    }
    const size_t t = s.refs[0].dim(0), row = len / t;
    for (size_t j = 0; j < b; ++j) {
        bool same = true;
        for (size_t tt = 0; tt < t && same; ++tt)
            same = std::memcmp(y + (tt * b + j) * row,
                               s.refs[j].data() + tt * row,
                               row * sizeof(float)) == 0;
        bad += !same;
    }
    return bad;
}

void
checkOutput(const ServeSetup& s, size_t b, const float* y,
            const std::string& what, Report& rep)
{
    rep.attempted += b;
    if (size_t bad = mismatches(s, b, y))
        rep.fail(what + ": output differs from the solo forward", bad);
}

/** 64-byte aligned float buffer. */
struct Slab
{
    explicit Slab(size_t bytes)
        : p(static_cast<float*>(
              std::aligned_alloc(64, (bytes + 63) / 64 * 64)))
    {
    }
    ~Slab() { std::free(p); }
    Slab(const Slab&) = delete;
    Slab& operator=(const Slab&) = delete;
    float* p;
};

// ----------------------------------------------------------- executor

/** Median PlanExecutor::run time at each of @p batches. */
std::vector<double>
probeExecutor(const std::string& prefix, ServeSetup& s,
              const std::vector<size_t>& batches, Trace& tr,
              Report& rep)
{
    PlanExecutor ex(*s.served, s.traits.itemShape, s.traits.batchAxis,
                    kMaxItems);
    std::vector<double> out;
    for (size_t b : batches) {
        const std::string name =
            prefix + "executor.run.b" + std::to_string(b);
        const uint32_t id = tr.name(name);
        for (size_t r = 0; r < kRunReps; ++r) {
            // The input range is recycled by later buffers: re-gather.
            gather(s, b, ex.inputData());
            Clock::time_point a = Clock::now();
            ex.run(b);
            tr.add(0, id, 0, r, a, Clock::now());
        }
        checkOutput(s, b, ex.outputData(), name, rep);
        out.push_back(tr.medianUs(name));
    }
    return out;
}

// -------------------------------------------------------------- steps

struct StepProbe
{
    std::string name;
    uint32_t id = 0;
    double macs = 0.0;
    std::function<void()> run;
};

/** Planner-path name of a step: its output buffer's producer path. */
std::string
stepName(const ServePlan& plan, const PlanStep& ps)
{
    const std::string& out = plan.buffers[ps.out].name;
    if (ps.kind != PlanStep::Kind::ResidualAdd)
        return out;
    // The residual add runs in place on the block's last buffer; name
    // it after the block.
    size_t dot = out.rfind('.');
    return (dot == std::string::npos ? std::string() : out.substr(0, dot) +
                                                           ".") +
           "add";
}

/**
 * Bind one plan step to the layer entry the executor would call, with
 * its scratch prepared at the maximum batch.
 */
std::function<void()>
bindStep(const PlanStep& ps, const TensorView& x, const TensorView& y,
         std::vector<std::shared_ptr<void>>& keep)
{
    if (ps.kind == PlanStep::Kind::ResidualAdd)
        return [x, y, len = y.size()] {
            for (size_t i = 0; i < len; ++i)
                y.data[i] += x.data[i];
        };
    if (ps.kind == PlanStep::Kind::SliceLast)
        return [x, y] {
            std::memcpy(y.data, x.data + (x.dim(0) - 1) * y.size(),
                        y.size() * sizeof(float));
        };
    Module* m = ps.mod;
    if (auto* ln = dynamic_cast<Linear*>(m)) {
        auto sc = std::make_shared<LinearServeScratch>();
        ln->prepareServe(*sc, x.size() / ln->inFeatures());
        keep.push_back(sc);
        return [ln, x, y, sc] { ln->forwardServe(x, y, *sc); };
    }
    if (auto* cv = dynamic_cast<Conv2d*>(m)) {
        auto sc = std::make_shared<ConvServeScratch>();
        cv->prepareServe(*sc, x.shape);
        keep.push_back(sc);
        return [cv, x, y, sc] { cv->forwardServe(x, y, *sc); };
    }
    if (auto* dw = dynamic_cast<DwConv2d*>(m)) {
        auto sc = std::make_shared<ConvServeScratch>();
        dw->prepareServe(*sc, x.shape);
        keep.push_back(sc);
        return [dw, x, y, sc] { dw->forwardServe(x, y, *sc); };
    }
    if (auto* bn = dynamic_cast<BatchNorm2d*>(m)) {
        auto sc = std::make_shared<BnServeScratch>();
        bn->prepareServe(*sc);
        keep.push_back(sc);
        return [bn, x, y, sc] { bn->forwardServe(x, y, *sc); };
    }
    if (auto* lstm = dynamic_cast<Lstm*>(m)) {
        auto sc = std::make_shared<RnnServeScratch>();
        lstm->prepareServe(*sc, x.dim(1));
        keep.push_back(sc);
        return [lstm, x, y, sc] { lstm->forwardServe(x, y, *sc); };
    }
    if (auto* gru = dynamic_cast<Gru*>(m)) {
        auto sc = std::make_shared<RnnServeScratch>();
        gru->prepareServe(*sc, x.dim(1));
        keep.push_back(sc);
        return [gru, x, y, sc] { gru->forwardServe(x, y, *sc); };
    }
    if (auto* r = dynamic_cast<ReLU*>(m))
        return [r, x, y] { r->forwardServe(x, y); };
    if (auto* mp = dynamic_cast<MaxPool2d*>(m))
        return [mp, x, y] { mp->forwardServe(x, y); };
    if (auto* g = dynamic_cast<GlobalAvgPool*>(m))
        return [g, x, y] { g->forwardServe(x, y); };
    if (auto* e = dynamic_cast<Embedding*>(m))
        return [e, x, y] { e->forwardServe(x, y); };
    // Flatten: a copy; the view already has the flattened shape.
    return [x, y] {
        std::memcpy(y.data, x.data, x.size() * sizeof(float));
    };
}

/** Times every step at batch 16; returns the median sum over reps. */
double
probeSteps(const std::string& prefix, ServeSetup& s, Trace& tr,
           Report& rep)
{
    std::vector<size_t> shape = s.traits.itemShape;
    shape[s.traits.batchAxis] = kMaxItems;
    const ServePlan plan = planServeForward(*s.served, shape);
    Slab slab(plan.peakBytes);
    auto view = [&](size_t i) {
        return TensorView{slab.p + plan.buffers[i].offset / sizeof(float),
                          plan.buffers[i].shape};
    };
    std::vector<std::shared_ptr<void>> keep;
    std::vector<StepProbe> steps;
    for (const PlanStep& ps : plan.steps) {
        StepProbe sp;
        sp.name = stepName(plan, ps);
        sp.id = tr.name(prefix + "step." + sp.name);
        for (const LayerSpec& ls : plan.net.layers)
            if (ls.name == sp.name || ls.name.rfind(sp.name + ".", 0) == 0)
                sp.macs += ls.macs();
        sp.run = bindStep(ps, view(ps.in), view(ps.out), keep);
        steps.push_back(std::move(sp));
    }

    const uint32_t all = tr.name(prefix + "executor.steps.b16");
    std::vector<double> sums;
    for (size_t r = 0; r < kRunReps; ++r) {
        gather(s, kMaxItems, view(0).data);
        Clock::time_point r0 = Clock::now();
        const uint64_t parent = tr.add(0, all, 0, r, r0, r0);
        double sum = 0.0;
        for (const StepProbe& sp : steps) {
            Clock::time_point a = Clock::now();
            sp.run();
            Clock::time_point b = Clock::now();
            tr.add(0, sp.id, parent, r, a, b);
            sum += usBetween(a, b);
        }
        tr.finish(parent, Clock::now());
        sums.push_back(sum);
    }
    checkOutput(s, kMaxItems, view(plan.outIndex).data,
                prefix + "plan steps", rep);

    for (const StepProbe& sp : steps) {
        const double us = tr.medianUs(prefix + "step." + sp.name);
        rep.addLayer(prefix + "step." + sp.name + ".us", us, "us");
        if (sp.macs > 0.0)
            rep.addLayer(prefix + "step." + sp.name + ".gops",
                         2.0 * sp.macs / us * 1e-3, "GOP/s");
    }
    return median(sums);
}

// ------------------------------------------------------------- kernels

/** One packed matrix as the serve forward runs it. */
struct KernelCase
{
    std::string name;
    const PackedQMat* w = nullptr;
    ActQuantParams ap;
    size_t p = 0;      //!< activation lanes per qgemm call
    bool half = false; //!< halfword pipeline (qgemm16)
    // Quantize / rescale stages of the same layer at batch 16.
    std::function<void()> quantize, rescale;
};

/** Random activation codes inside @p ap's clip range. */
template <class T>
std::vector<T>
randomCodes(size_t n, const ActQuantParams& ap, Rng& rng)
{
    const long lo = ap.lo < 0.0f ? -long(ap.maxAbs) : 0;
    std::vector<T> v(n);
    for (T& c : v)
        c = T(rng.randint(lo, ap.maxAbs));
    return v;
}

std::vector<float>
randomActs(size_t n, Rng& rng)
{
    std::vector<float> v(n);
    for (float& f : v)
        f = float(std::fabs(rng.normal()));
    return v;
}

/** The int layers of a plan at batch 16, with their stage bindings. */
std::vector<KernelCase>
kernelCases(const ServePlan& plan, Rng& rng,
            std::vector<std::shared_ptr<void>>& keep)
{
    std::vector<KernelCase> cases;
    for (const PlanStep& ps : plan.steps) {
        if (ps.kind != PlanStep::Kind::Layer)
            continue;
        const std::vector<size_t>& in = plan.buffers[ps.in].shape;
        const std::vector<size_t>& out = plan.buffers[ps.out].shape;
        const std::string& path = plan.buffers[ps.out].name;
        if (auto* cv = dynamic_cast<Conv2d*>(ps.mod)) {
            KernelCase k{path, &cv->packedQWeights(),
                         actQuantParams(cv->actQuant())};
            const size_t n = in[0], chw = in[1] * in[2] * in[3];
            k.p = out[2] * out[3];
            k.half = halfwordSafe(k.ap, k.w->cols());
            auto x = std::make_shared<std::vector<float>>(
                randomActs(n * chw, rng));
            auto q = std::make_shared<std::vector<int32_t>>(n * chw);
            auto q16 = std::make_shared<std::vector<int16_t>>(n * chw);
            auto acc = std::make_shared<std::vector<int32_t>>(
                k.w->rows() * k.p);
            auto y = std::make_shared<std::vector<float>>(
                k.w->rows() * k.p);
            keep.insert(keep.end(), {x, q, q16, acc, y});
            const ActQuantParams ap = k.ap;
            const bool half = k.half;
            const PackedQMat* w = k.w;
            const size_t p = k.p;
            k.quantize = [=] {
                if (half)
                    quantizeActsInt(x->data(), q16->data(), n * chw, ap);
                else
                    quantizeActsInt(x->data(), q->data(), n * chw, ap);
            };
            k.rescale = [=] {
                for (size_t i = 0; i < n; ++i)
                    rescaleConv(*w, acc->data(), p, ap.invScale, nullptr,
                                y->data());
            };
            cases.push_back(std::move(k));
        } else if (auto* ln = dynamic_cast<Linear*>(ps.mod)) {
            KernelCase k{path, &ln->packedQWeights(),
                         actQuantParams(ln->actQuant())};
            const size_t cols = ln->inFeatures();
            k.p = shapeSize(in) / cols;
            k.half = halfwordSafe(k.ap, cols);
            auto x = std::make_shared<std::vector<float>>(
                randomActs(k.p * cols, rng));
            auto q = std::make_shared<std::vector<int32_t>>(k.p * cols);
            auto q16 = std::make_shared<std::vector<int16_t>>(k.p * cols);
            auto acc = std::make_shared<std::vector<int32_t>>(
                k.w->rows() * k.p);
            auto y = std::make_shared<std::vector<float>>(
                k.w->rows() * k.p);
            auto f = std::make_shared<std::vector<double>>(k.w->rows());
            keep.insert(keep.end(), {x, q, q16, acc, y, f});
            const ActQuantParams ap = k.ap;
            const bool half = k.half;
            const PackedQMat* w = k.w;
            const size_t p = k.p;
            k.quantize = [=] {
                if (half)
                    quantizeTransposeActs(x->data(), p, cols, ap,
                                          q16->data());
                else
                    quantizeTransposeActs(x->data(), p, cols, ap,
                                          q->data());
            };
            k.rescale = [=] {
                rescaleLinear(*w, acc->data(), p, ap.invScale, nullptr,
                              y->data(), f->data());
            };
            cases.push_back(std::move(k));
        } else if (auto* lstm = dynamic_cast<Lstm*>(ps.mod)) {
            // Gate GEMMs run per timestep and per batch chunk, int32
            // codes; the rescale is fused into the cell update.
            const std::vector<size_t> bounds =
                deterministicBatchChunks(in[1], kGemmMR,
                                         kRnnMaxBatchChunks);
            const size_t t = in[0], nb = bounds[1] - bounds[0];
            const size_t chunks = bounds.size() - 1;
            for (bool hidden : {false, true}) {
                KernelCase k{path + (hidden ? ".wh" : ".wx"),
                             hidden ? &lstm->packedQWh()
                                    : &lstm->packedQWx(),
                             actQuantParams(hidden ? lstm->hiddenQuant()
                                                   : lstm->inputQuant())};
                const size_t cols = k.w->cols();
                k.p = nb;
                auto x = std::make_shared<std::vector<float>>(
                    randomActs(nb * cols, rng));
                auto q = std::make_shared<std::vector<int32_t>>(nb * cols);
                auto qT = std::make_shared<std::vector<int32_t>>(nb * cols);
                keep.insert(keep.end(), {x, q, qT});
                const ActQuantParams ap = k.ap;
                const size_t reps = t * chunks;
                k.quantize = [=] {
                    for (size_t i = 0; i < reps; ++i) {
                        quantizeActsInt(x->data(), q->data(), nb * cols,
                                        ap);
                        transposeInt32(q->data(), qT->data(), nb, cols);
                    }
                };
                cases.push_back(std::move(k));
            }
        }
    }
    return cases;
}

template <class T>
double
timeKernel(const KernelCase& k, const std::vector<T>& acts,
           std::vector<int32_t>& acc, const std::string& name, Trace& tr)
{
    const uint32_t id = tr.name(name);
    for (size_t r = 0; r < kKernelReps; ++r) {
        Clock::time_point a = Clock::now();
        if constexpr (sizeof(T) == sizeof(int16_t))
            qgemm16(*k.w, acts.data(), k.p, acc.data());
        else
            qgemm(*k.w, acts.data(), k.p, acc.data());
        tr.add(0, id, 0, r, a, Clock::now());
    }
    return tr.medianUs(name);
}

double
timeStage(const std::function<void()>& fn, const std::string& name,
          Trace& tr)
{
    const uint32_t id = tr.name(name);
    for (size_t r = 0; r < kKernelReps; ++r) {
        Clock::time_point a = Clock::now();
        fn();
        tr.add(0, id, 0, r, a, Clock::now());
    }
    return tr.medianUs(name);
}

void
probeKernels(const std::string& prefix, ServeSetup& s, Trace& tr,
             Report& rep)
{
    std::vector<size_t> shape = s.traits.itemShape;
    shape[s.traits.batchAxis] = kMaxItems;
    const ServePlan plan = planServeForward(*s.served, shape);
    Rng rng(5);
    std::vector<std::shared_ptr<void>> keep;
    double quantUs = 0.0, rescaleUs = 0.0;
    for (const KernelCase& k : kernelCases(plan, rng, keep)) {
        const std::string base = prefix + "infer." + k.name;
        const size_t rows = k.w->rows(), cols = k.w->cols();
        std::vector<int32_t> acc(rows * k.p);
        double us;
        size_t codeBytes;
        if (k.half) {
            us = timeKernel(k, randomCodes<int16_t>(cols * k.p, k.ap, rng),
                            acc, base + ".qgemm", tr);
            codeBytes = sizeof(int16_t);
        } else {
            us = timeKernel(k, randomCodes<int32_t>(cols * k.p, k.ap, rng),
                            acc, base + ".qgemm", tr);
            codeBytes = sizeof(int32_t);
        }
        // Bytes one call must move, computed from tensor sizes: the
        // code-class panels and column indices it walks, the
        // activation codes it reads and the accumulators it writes.
        const double bytes =
            double(k.w->codeClasses().size() * sizeof(QCodeClass) +
                   k.w->colIdx().size() * sizeof(uint32_t) +
                   cols * k.p * codeBytes + rows * k.p * sizeof(int32_t));
        rep.addLayer(base + ".qgemm_us", us, "us");
        rep.addLayer(base + ".gops",
                     2.0 * double(rows * cols * k.p) / us * 1e-3,
                     "GOP/s");
        rep.addLayer(base + ".bytes", bytes, "B");
        if (k.quantize)
            quantUs += timeStage(k.quantize, base + ".quantize", tr);
        if (k.rescale)
            rescaleUs += timeStage(k.rescale, base + ".rescale", tr);
    }
    rep.addLayer(prefix + "infer.quantize_us", quantUs, "us");
    rep.addLayer(prefix + "infer.rescale_us", rescaleUs, "us");
}

} // namespace

ProbeResult
probeLayers(const std::string& prefix, ServeSetup& s, double meanBatch,
            Trace& tr, Report& rep)
{
    setOmpThreads(s.ompThreads);
    const double lo = std::floor(meanBatch);
    const size_t b0 = size_t(std::max(1.0, lo));
    const size_t b1 = std::min(kMaxItems, b0 + 1);
    std::vector<double> run =
        probeExecutor(prefix, s, {1, kMaxItems, b0, b1}, tr, rep);
    ProbeResult r;
    r.runUsB1 = run[0];
    r.runUsB16 = run[1];
    const double frac = std::clamp(meanBatch - double(b0), 0.0, 1.0);
    r.runUsAtMean = run[2] + frac * (run[3] - run[2]);
    r.stepSumUsB16 = probeSteps(prefix, s, tr, rep);
    probeKernels(prefix, s, tr, rep);
    rep.addLayer(prefix + "executor.run_us.b1", r.runUsB1, "us");
    rep.addLayer(prefix + "executor.run_us.b16", r.runUsB16, "us");
    rep.addLayer(prefix + "executor.step_sum_us.b16", r.stepSumUsB16,
                 "us");
    setOmpThreads(hardwareThreads());
    return r;
}

} // namespace perfbench
