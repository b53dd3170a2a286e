/**
 * @file
 * Plan execution: run a model's eval forward as the recorded step
 * list of its ServePlan, writing every activation into one pre-
 * faulted slab at the planner's precomputed offsets. A PlanExecutor
 * is the per-replica half of the serving split — it owns the slab
 * and every layer's mutable serve scratch (sized once, at the plan's
 * maximum batch), while the model it executes stays immutable and
 * replica-shared: packed weight panels, folded BN and float weights
 * are read concurrently by any number of executors, so n replicas
 * cost one model plus n plans.
 *
 * Steady-state run() calls allocate nothing — not from the heap and
 * not from a bump arena: activations land at fixed offsets that are
 * stable across requests, and per-step scratch was pre-sized by
 * prepareServe. Variable batch sizes are handled without replanning
 * by planning twice (unit batch and maximum batch) and interpolating
 * every buffer dimension affinely in the item count; the walk is
 * deterministic, so the two plans are structurally identical and the
 * interpolation is exact (asserted).
 *
 * Construction and run() are single-threaded from the caller's view
 * (one worker thread per replica). How many threads of the caller's
 * OpenMP team a step's regions get depends on what its parallel loop
 * splits: item-parallel steps (convolutions and the per-element
 * steps) run on the calling thread alone for a batch of at most one
 * item per thread and on the full team above that (teamFor); Linear
 * splits weight rows and gets the full team once its GEMM pays for a
 * fork (rowTeamFor); Lstm and Gru, whose gate GEMMs split rows,
 * always get the full team. Integer sums are exact and every
 * float epilogue is per-element, so outputs are bit-identical to
 * Module::forward(x, false) either way, at every thread count.
 */

#ifndef MIXQ_SERVE_EXECUTOR_HH
#define MIXQ_SERVE_EXECUTOR_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/layers.hh"
#include "nn/rnn.hh"
#include "serve/planner.hh"

namespace mixq {

/** Executes one ServePlan against a shared, immutable model. */
class PlanExecutor
{
  public:
    /**
     * Plan @p root at @p itemShape (a single item: the batch axis
     * @p batchAxis must be 1) and at the same shape with the batch
     * axis widened to @p maxItems, allocate and pre-fault the slab,
     * and size every step's scratch for the maximum batch. Packs
     * weight panels via the layers' prepareServe — idempotent per
     * weight version, so building a second executor over the same
     * model packs nothing and shares the first one's panels.
     */
    PlanExecutor(Module& root, const std::vector<size_t>& itemShape,
                 size_t batchAxis, size_t maxItems);
    ~PlanExecutor();
    PlanExecutor(const PlanExecutor&) = delete;
    PlanExecutor& operator=(const PlanExecutor&) = delete;

    /**
     * Execute the plan for @p items (1 <= items <= maxItems). The
     * caller has written the input into inputData() in the runtime
     * input shape; the output lands at outputData(). Allocation-free
     * in steady state (first call included — scratch is ctor-sized).
     * Item-parallel steps run on teamFor(items, omp_get_max_threads())
     * threads, Linear on rowTeamFor, Lstm and Gru on the caller's
     * full team.
     */
    void run(size_t items);

    /**
     * Team width run() gives the item-parallel steps of a batch of
     * @p items when the calling thread's OpenMP team is @p threads
     * wide: 1 (the calling thread alone) while the batch has at most
     * one item per thread, else the full team. A team at that size
     * hands each thread at most one item, and in a busy serving loop
     * its forks and barriers cost more than that split saves: with
     * maxBatch <= T, a saturated server did more work on one thread
     * than on min(items, T) threads (docs/ARCHITECTURE.md, "Batch
     * server"). A pure function of its arguments, never timed, so
     * serving stays deterministic and setup does no calibration.
     */
    static int teamFor(size_t items, int threads)
    {
        return items <= size_t(threads) ? 1 : threads;
    }

    /**
     * Serial work, in multiply-accumulates, below which a row-split
     * GEMM step runs faster on the calling thread than on a team. A
     * fork of the worker's team costs tens of microseconds in a busy
     * serving loop (~40 us measured on a 4-vCPU VM), about what one
     * thread takes for 50k one-item integer MACs; the threshold is a
     * couple of forks' worth.
     */
    static constexpr size_t kRowSplitMinMacs = size_t(1) << 17;

    /**
     * Team width run() gives a Linear step doing @p macs
     * multiply-accumulates (rows x in x out): the full team from
     * kRowSplitMinMacs on, else 1. Its loop splits weight rows, so
     * unlike an item-parallel step it can use the team at batch 1. A
     * pure function of its arguments, like teamFor.
     */
    static int rowTeamFor(size_t macs, int threads)
    {
        return macs >= kRowSplitMinMacs ? threads : 1;
    }

    /** Slab address of the input buffer (gather target). */
    float* inputData() { return buf(0); }
    /** Slab address of the output buffer (scatter source). */
    const float* outputData() const { return buf(plan_.outIndex); }
    /** Byte size of the input buffer at the maximum batch. */
    size_t inputBytes() const { return plan_.buffers[0].bytes; }
    /** Runtime shape of the input buffer for @p items. */
    std::vector<size_t> inputShape(size_t items) const
    {
        return runtimeShape(0, items);
    }
    /** Runtime shape of the output buffer for @p items. */
    std::vector<size_t> outputShape(size_t items) const
    {
        return runtimeShape(plan_.outIndex, items);
    }

    /**
     * Re-run every step's prepareServe against the model's current
     * state. Needed after a hot weight swap (BatchServer::
     * reloadArtifact): prepareServe stages per-layer eval constants —
     * BatchNorm's frozen running-stat affine, panel packs keyed by
     * weight version — that would otherwise keep serving the old
     * model. Shapes are unchanged, so scratch never regrows; must not
     * race run() (the server calls it with every worker quiesced).
     */
    void restage();

    /** The executed (maximum-batch) plan. */
    const ServePlan& plan() const { return plan_; }
    size_t maxItems() const { return maxItems_; }
    /** Allocated slab size (the plan's peak, page-rounded up). */
    size_t slabBytes() const { return slabBytes_; }
    /** Total bytes of this replica's per-step serve scratch. */
    size_t scratchBytes() const;

  private:
    /** Resolved step: the plan step plus its serve lowering. */
    enum class Op
    {
        Linear,
        Conv,
        DwConv,
        Bn,
        Relu,
        MaxPool,
        Gap,
        Flatten,
        Embedding,
        Lstm,
        Gru,
        ResidualAdd,
        SliceLast
    };

    struct StepExec
    {
        Op op = Op::ResidualAdd;
        Module* mod = nullptr;
        std::unique_ptr<LinearServeScratch> lin;
        std::unique_ptr<ConvServeScratch> conv;
        std::unique_ptr<BnServeScratch> bn;
        std::unique_ptr<RnnServeScratch> rnn;
    };

    /** Prebuilt input/output views of one step at one batch size. */
    struct StepViews
    {
        TensorView in, out;
    };

    float* buf(size_t i) const
    {
        return slab_ + plan_.buffers[i].offset / sizeof(float);
    }
    std::vector<size_t> runtimeShape(size_t bufIdx, size_t n) const;

    ServePlan unit_; //!< plan at batch 1 (shape interpolation anchor)
    ServePlan plan_; //!< plan at maxItems (offsets, scratch sizing)
    size_t maxItems_ = 1;
    float* slab_ = nullptr;
    size_t slabBytes_ = 0;
    std::vector<StepExec> steps_;
    std::vector<std::vector<StepViews>> viewsByN_; //!< [items][step]
};

} // namespace mixq

#endif // MIXQ_SERVE_EXECUTOR_HH
