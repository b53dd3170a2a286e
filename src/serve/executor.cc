#include "serve/executor.hh"

#include <cstdlib>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/logging.hh"

namespace mixq {

namespace {

constexpr size_t kSlabAlign = 64;

size_t alignUp(size_t v, size_t a)
{
    return (v + a - 1) / a * a;
}

} // namespace

PlanExecutor::PlanExecutor(Module& root,
                           const std::vector<size_t>& itemShape,
                           size_t batchAxis, size_t maxItems)
    : maxItems_(maxItems)
{
    MIXQ_ASSERT(maxItems >= 1, "PlanExecutor: maxItems must be >= 1");
    MIXQ_ASSERT(batchAxis < itemShape.size() &&
                    itemShape[batchAxis] == 1,
                "PlanExecutor: itemShape must carry a unit batch axis");

    unit_ = planServeForward(root, itemShape);
    if (maxItems_ == 1) {
        plan_ = unit_;
    } else {
        std::vector<size_t> ws = itemShape;
        ws[batchAxis] = maxItems_;
        plan_ = planServeForward(root, ws);
    }
    MIXQ_ASSERT(plan_.buffers.size() == unit_.buffers.size() &&
                    plan_.steps.size() == unit_.steps.size() &&
                    plan_.outIndex == unit_.outIndex,
                "PlanExecutor: unit and max-batch plans diverge "
                "structurally");

    // One slab covers the whole plan; memset pre-faults every page so
    // steady-state runs never take a soft page fault either.
    slabBytes_ = alignUp(plan_.peakBytes, kSlabAlign);
    MIXQ_ASSERT(slabBytes_ > 0, "PlanExecutor: empty plan");
    slab_ = static_cast<float*>(
        std::aligned_alloc(kSlabAlign, slabBytes_));
    MIXQ_ASSERT(slab_ != nullptr, "PlanExecutor: slab allocation failed");
    std::memset(slab_, 0, slabBytes_);

    // Resolve each plan step to its serve lowering and size its
    // scratch at the maximum batch. prepareServe also packs weight
    // panels (idempotent per weight version — a second executor over
    // the same model reuses the first one's packs).
    steps_.reserve(plan_.steps.size());
    for (size_t si = 0; si < plan_.steps.size(); ++si) {
        const PlanStep& ps = plan_.steps[si];
        const PlanStep& us = unit_.steps[si];
        MIXQ_ASSERT(ps.kind == us.kind && ps.mod == us.mod &&
                        ps.in == us.in && ps.out == us.out,
                    "PlanExecutor: unit and max-batch plans diverge "
                    "structurally");
        StepExec se;
        se.mod = ps.mod;
        const std::vector<size_t>& inMax = plan_.buffers[ps.in].shape;
        switch (ps.kind) {
        case PlanStep::Kind::ResidualAdd:
            se.op = Op::ResidualAdd;
            break;
        case PlanStep::Kind::SliceLast:
            se.op = Op::SliceLast;
            break;
        case PlanStep::Kind::Layer:
            if (auto* ln = dynamic_cast<Linear*>(ps.mod)) {
                se.op = Op::Linear;
                se.lin = std::make_unique<LinearServeScratch>();
                ln->prepareServe(*se.lin,
                                 shapeSize(inMax) / ln->inFeatures());
            } else if (auto* cv = dynamic_cast<Conv2d*>(ps.mod)) {
                se.op = Op::Conv;
                se.conv = std::make_unique<ConvServeScratch>();
                cv->prepareServe(*se.conv, inMax);
            } else if (auto* dw = dynamic_cast<DwConv2d*>(ps.mod)) {
                se.op = Op::DwConv;
                se.conv = std::make_unique<ConvServeScratch>();
                dw->prepareServe(*se.conv, inMax);
            } else if (auto* bn = dynamic_cast<BatchNorm2d*>(ps.mod)) {
                se.op = Op::Bn;
                se.bn = std::make_unique<BnServeScratch>();
                bn->prepareServe(*se.bn);
            } else if (dynamic_cast<ReLU*>(ps.mod) != nullptr) {
                se.op = Op::Relu;
            } else if (dynamic_cast<MaxPool2d*>(ps.mod) != nullptr) {
                se.op = Op::MaxPool;
            } else if (dynamic_cast<GlobalAvgPool*>(ps.mod) !=
                       nullptr) {
                se.op = Op::Gap;
            } else if (dynamic_cast<Flatten*>(ps.mod) != nullptr) {
                se.op = Op::Flatten;
            } else if (dynamic_cast<Embedding*>(ps.mod) != nullptr) {
                se.op = Op::Embedding;
            } else if (auto* lstm = dynamic_cast<Lstm*>(ps.mod)) {
                se.op = Op::Lstm;
                se.rnn = std::make_unique<RnnServeScratch>();
                lstm->prepareServe(*se.rnn, inMax[1]);
            } else if (auto* gru = dynamic_cast<Gru*>(ps.mod)) {
                se.op = Op::Gru;
                se.rnn = std::make_unique<RnnServeScratch>();
                gru->prepareServe(*se.rnn, inMax[1]);
            } else {
                panic("PlanExecutor: plan step has no serve lowering "
                      "— planner and executor disagree");
            }
            break;
        }
        steps_.push_back(std::move(se));
    }

    // Prebuild every (batch size, step) view pair so run() touches
    // no heap: the views carry slab pointers at the max-batch plan's
    // offsets and the affinely interpolated runtime shapes.
    viewsByN_.resize(maxItems_ + 1);
    for (size_t n = 1; n <= maxItems_; ++n) {
        std::vector<StepViews>& vs = viewsByN_[n];
        vs.resize(plan_.steps.size());
        for (size_t si = 0; si < plan_.steps.size(); ++si) {
            const PlanStep& ps = plan_.steps[si];
            vs[si].in = TensorView{buf(ps.in), runtimeShape(ps.in, n)};
            vs[si].out =
                TensorView{buf(ps.out), runtimeShape(ps.out, n)};
        }
    }
}

PlanExecutor::~PlanExecutor()
{
    std::free(slab_);
}

void
PlanExecutor::restage()
{
    for (size_t si = 0; si < plan_.steps.size(); ++si) {
        const PlanStep& ps = plan_.steps[si];
        StepExec& se = steps_[si];
        const std::vector<size_t>& inMax = plan_.buffers[ps.in].shape;
        switch (se.op) {
        case Op::Linear: {
            auto* ln = static_cast<Linear*>(se.mod);
            ln->prepareServe(*se.lin,
                             shapeSize(inMax) / ln->inFeatures());
            break;
        }
        case Op::Conv:
            static_cast<Conv2d*>(se.mod)->prepareServe(*se.conv,
                                                       inMax);
            break;
        case Op::DwConv:
            static_cast<DwConv2d*>(se.mod)->prepareServe(*se.conv,
                                                         inMax);
            break;
        case Op::Bn:
            static_cast<BatchNorm2d*>(se.mod)->prepareServe(*se.bn);
            break;
        case Op::Lstm:
            static_cast<Lstm*>(se.mod)->prepareServe(*se.rnn,
                                                     inMax[1]);
            break;
        case Op::Gru:
            static_cast<Gru*>(se.mod)->prepareServe(*se.rnn,
                                                    inMax[1]);
            break;
        default:
            break; // stateless steps stage nothing
        }
    }
}

std::vector<size_t> PlanExecutor::runtimeShape(size_t bufIdx,
                                               size_t n) const
{
    const std::vector<size_t>& u = unit_.buffers[bufIdx].shape;
    const std::vector<size_t>& m = plan_.buffers[bufIdx].shape;
    MIXQ_ASSERT(u.size() == m.size(),
                "PlanExecutor: buffer rank differs between plans");
    std::vector<size_t> s(u.size());
    for (size_t d = 0; d < u.size(); ++d) {
        if (u[d] == m[d]) {
            s[d] = u[d];
            continue;
        }
        // Batch-carrying dimension: dim(n) must be affine in n for
        // the fixed max-batch offsets to hold every intermediate
        // batch. True for every modeled layer (batch axes pass
        // through untouched); asserted, not assumed.
        MIXQ_ASSERT(m[d] > u[d] && maxItems_ > 1 &&
                        (m[d] - u[d]) % (maxItems_ - 1) == 0,
                    "PlanExecutor: buffer dimension is not affine in "
                    "the item count");
        s[d] = u[d] + (m[d] - u[d]) / (maxItems_ - 1) * (n - 1);
    }
    return s;
}

size_t PlanExecutor::scratchBytes() const
{
    size_t total = 0;
    for (const StepExec& se : steps_) {
        if (se.lin)
            total += se.lin->bytes();
        if (se.conv)
            total += se.conv->bytes();
        if (se.bn)
            total += se.bn->bytes();
        if (se.rnn)
            total += se.rnn->bytes();
    }
    return total;
}

void PlanExecutor::run(size_t items)
{
    MIXQ_ASSERT(items >= 1 && items <= maxItems_,
                "PlanExecutor::run: batch exceeds the planned maximum");
#ifdef _OPENMP
    // omp_set_num_threads sets a per-thread ICV: narrowing it here
    // narrows this run's layer regions on the calling thread, and the
    // restore below leaves the caller's team as it was (no step
    // throws; failures abort).
    const int threads = omp_get_max_threads();
    const int team = teamFor(items, threads);
    int current = threads;
#endif
    const std::vector<StepViews>& vs = viewsByN_[items];
    for (size_t si = 0; si < steps_.size(); ++si) {
        const StepExec& se = steps_[si];
#ifdef _OPENMP
        // Linear splits weight rows over the team (x holds rows x in
        // values), and the recurrent serve path its gate GEMMs' rows
        // once the batch fits one chunk — their only parallelism at
        // small batches, so neither follows the item count.
        int want = team;
        if (se.op == Op::Linear)
            want = rowTeamFor(vs[si].in.size() *
                                  static_cast<const Linear*>(se.mod)
                                      ->outFeatures(),
                              threads);
        else if (se.op == Op::Lstm || se.op == Op::Gru)
            want = threads;
        if (want != current) {
            omp_set_num_threads(want);
            current = want;
        }
#endif
        const TensorView& x = vs[si].in;
        const TensorView& y = vs[si].out;
        switch (se.op) {
        case Op::Linear:
            static_cast<const Linear*>(se.mod)->forwardServe(x, y,
                                                             *se.lin);
            break;
        case Op::Conv:
            static_cast<const Conv2d*>(se.mod)->forwardServe(x, y,
                                                             *se.conv);
            break;
        case Op::DwConv:
            static_cast<const DwConv2d*>(se.mod)->forwardServe(
                x, y, *se.conv);
            break;
        case Op::Bn:
            static_cast<const BatchNorm2d*>(se.mod)->forwardServe(
                x, y, *se.bn);
            break;
        case Op::Relu:
            static_cast<const ReLU*>(se.mod)->forwardServe(x, y);
            break;
        case Op::MaxPool:
            static_cast<const MaxPool2d*>(se.mod)->forwardServe(x, y);
            break;
        case Op::Gap:
            static_cast<const GlobalAvgPool*>(se.mod)->forwardServe(x,
                                                                    y);
            break;
        case Op::Flatten:
            // Flatten's eval forward is a copy + reshape; the view
            // already carries the flattened shape.
            std::memcpy(y.data, x.data, x.size() * sizeof(float));
            break;
        case Op::Embedding:
            static_cast<const Embedding*>(se.mod)->forwardServe(x, y);
            break;
        case Op::Lstm:
            static_cast<const Lstm*>(se.mod)->forwardServe(x, y,
                                                           *se.rnn);
            break;
        case Op::Gru:
            static_cast<const Gru*>(se.mod)->forwardServe(x, y,
                                                          *se.rnn);
            break;
        case Op::ResidualAdd: {
            // Replicates the blocks' in-place `h.add(s)`.
            const size_t len = y.size();
            MIXQ_ASSERT(x.size() == len,
                        "PlanExecutor: residual shape mismatch");
            float* dst = y.data;
            const float* src = x.data;
            for (size_t i = 0; i < len; ++i)
                dst[i] += src[i];
            break;
        }
        case Op::SliceLast: {
            // Last timestep of a [T, N, H] buffer into [N, H].
            const size_t t = x.dim(0);
            const size_t nn = x.dim(1);
            const size_t h = x.dim(2);
            std::memcpy(y.data, x.data + (t - 1) * nn * h,
                        nn * h * sizeof(float));
            break;
        }
        }
    }
#ifdef _OPENMP
    if (current != threads)
        omp_set_num_threads(threads);
#endif
}

} // namespace mixq
