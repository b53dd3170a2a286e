#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif
#if defined(__SANITIZE_THREAD__) && defined(_OPENMP)
#include <sanitizer/tsan_interface.h>
#endif

#include "serial/deploy.hh"
#include "serve/executor.hh"
#include "serve/fault.hh"
#include "util/logging.hh"

namespace mixq {

namespace {

void
atomicMax(std::atomic<size_t>& a, size_t v)
{
    size_t cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

std::exception_ptr
serveError(ServeError::Code code, const char* msg)
{
    return std::make_exception_ptr(ServeError(code, msg));
}

/**
 * ThreadSanitizer builds only: tell TSan that every thread of the
 * calling thread's OpenMP team has finished its earlier work. libgomp
 * is not instrumented, so TSan cannot see that its barriers order a
 * pool thread's accesses before the team's master goes on. Once such
 * an access falls out of TSan's history, a later free or reuse of
 * that memory by a thread that joined the master is reported as a
 * race whose pool-thread stack is gone, which tools/tsan.supp cannot
 * match. Each team thread releases a token inside one more region
 * and the caller acquires it after: the edge the barrier provides.
 */
void
tsanJoinOmpTeam()
{
#if defined(__SANITIZE_THREAD__) && defined(_OPENMP)
    char token = 0;
#pragma omp parallel
    __tsan_release(&token);
    __tsan_acquire(&token);
#endif
}

} // namespace

BatchServer::BatchServer(std::vector<Module*> replicas,
                         BatchTraits traits, ServeOptions opt)
    : replicas_(std::move(replicas)), traits_(std::move(traits)),
      opt_(opt)
{
    MIXQ_ASSERT(!replicas_.empty(), "serve: no model replicas");
    MIXQ_ASSERT(opt_.maxBatch >= 1, "serve: maxBatch must be >= 1");
    MIXQ_ASSERT(traits_.batchAxis < traits_.itemShape.size() &&
                    traits_.itemShape[traits_.batchAxis] == 1,
                "serve: itemShape must have extent 1 on batchAxis");
    MIXQ_ASSERT(traits_.batchAxis <= 1,
                "serve: batchAxis must be 0 (NCHW) or 1 (TNC)");
    MIXQ_ASSERT(opt_.maxQueueItems == 0 ||
                    opt_.maxQueueItems >= opt_.maxBatch,
                "serve: maxQueueItems must be 0 (unbounded) or >= "
                "maxBatch — else a full-size request can never be "
                "admitted");
    if (opt_.planArena) {
        std::vector<size_t> ws = traits_.itemShape;
        ws[traits_.batchAxis] = opt_.maxBatch;
        plan_ = planServeForward(*replicas_[0], ws);
    }
    liveWorkers_ = replicas_.size();
    workers_.reserve(replicas_.size());
    // The workers touch what this thread's pool threads last touched.
    tsanJoinOmpTeam();
    for (size_t i = 0; i < replicas_.size(); ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

BatchServer::BatchServer(Module& model, size_t replicas,
                         const BatchTraits& traits,
                         const ServeOptions& opt)
    : planned_(true), sharedModel_(&model), traits_(traits), opt_(opt)
{
    MIXQ_ASSERT(replicas >= 1, "serve: need at least one replica");
    MIXQ_ASSERT(opt_.maxBatch >= 1, "serve: maxBatch must be >= 1");
    MIXQ_ASSERT(traits_.batchAxis < traits_.itemShape.size() &&
                    traits_.itemShape[traits_.batchAxis] == 1,
                "serve: itemShape must have extent 1 on batchAxis");
    MIXQ_ASSERT(traits_.batchAxis <= 1,
                "serve: batchAxis must be 0 (NCHW) or 1 (TNC)");
    MIXQ_ASSERT(opt_.maxQueueItems == 0 ||
                    opt_.maxQueueItems >= opt_.maxBatch,
                "serve: maxQueueItems must be 0 (unbounded) or >= "
                "maxBatch — else a full-size request can never be "
                "admitted");
    // Built sequentially on this thread: the first executor packs the
    // shared model's weight panels (PackedQMat/PackedMat ensure), the
    // rest find them current and pack nothing — one weight copy for
    // all replicas.
    execs_.reserve(replicas);
    for (size_t i = 0; i < replicas; ++i)
        execs_.push_back(std::make_unique<PlanExecutor>(
            model, traits_.itemShape, traits_.batchAxis,
            opt_.maxBatch));
    plan_ = execs_[0]->plan();
    arenaCapacity_.store(execs_[0]->slabBytes(),
                         std::memory_order_relaxed);
    arenaHighWater_.store(plan_.peakBytes, std::memory_order_relaxed);
    scratchBytes_.store(execs_[0]->scratchBytes(),
                        std::memory_order_relaxed);
    liveWorkers_ = replicas;
    workers_.reserve(replicas);
    tsanJoinOmpTeam();
    for (size_t i = 0; i < replicas; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

BatchServer::~BatchServer()
{
    stop(true);
}

SubmitResult
BatchServer::submit(Tensor x, long deadlineUs)
{
    std::promise<Tensor> p;
    SubmitResult res;
    res.future = p.get_future();

    const std::vector<size_t>& is = traits_.itemShape;
    std::string err;
    size_t items = 0;
    if (x.ndim() != is.size()) {
        err = "request rank does not match the server's item shape";
    } else {
        items = x.dim(traits_.batchAxis);
        for (size_t i = 0; i < is.size() && err.empty(); ++i)
            if (i != traits_.batchAxis && x.dim(i) != is[i])
                err = "request dims do not match the item shape";
        if (err.empty() && items == 0)
            err = "empty request";
        if (err.empty() && items > opt_.maxBatch)
            err = "request items exceed maxBatch";
    }
    if (!err.empty()) {
        res.status = ServeStatus::Rejected;
        p.set_exception(std::make_exception_ptr(
            std::invalid_argument("mixq serve: " + err)));
        return res;
    }

    Request r;
    r.x = std::move(x);
    r.items = items;
    if (deadlineUs > 0) {
        r.hasDeadline = true;
        r.expiry = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(deadlineUs);
    }

    {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_ || dead_) {
            const char* msg = dead_
                                  ? "mixq serve: no live workers"
                                  : "mixq serve: submit after stop";
            lk.unlock();
            res.status = ServeStatus::Rejected;
            p.set_exception(
                serveError(ServeError::Code::Stopped, msg));
            return res;
        }

        if (opt_.maxQueueItems > 0 &&
            queuedItems_ + items > opt_.maxQueueItems) {
            switch (opt_.overload) {
            case OverloadPolicy::Block:
                // Backpressure: park the producer until workers make
                // room. stop()/worker death releases it with a
                // rejection rather than hanging it forever.
                roomCv_.wait(lk, [&] {
                    return stopping_ || dead_ ||
                           queuedItems_ + items <= opt_.maxQueueItems;
                });
                if (stopping_ || dead_) {
                    const char* msg =
                        dead_ ? "mixq serve: no live workers"
                              : "mixq serve: submit after stop";
                    lk.unlock();
                    res.status = ServeStatus::Rejected;
                    p.set_exception(
                        serveError(ServeError::Code::Stopped, msg));
                    return res;
                }
                break;
            case OverloadPolicy::Shed:
                // Freshest-first: evict from the queue head (the
                // oldest requests — the ones a deadline would reap
                // next anyway) until the newcomer fits. The ctor
                // guarantees maxQueueItems >= maxBatch >= items, so
                // an empty queue always has room.
                while (queuedItems_ + items > opt_.maxQueueItems &&
                       !queue_.empty()) {
                    Request victim = std::move(queue_.front());
                    queue_.pop_front();
                    queuedItems_ -= victim.items;
                    shed_.fetch_add(1, std::memory_order_relaxed);
                    victim.result.set_exception(serveError(
                        ServeError::Code::Shed,
                        "mixq serve: request shed under overload"));
                }
                break;
            case OverloadPolicy::FailFast:
                shed_.fetch_add(1, std::memory_order_relaxed);
                lk.unlock();
                res.status = ServeStatus::Shed;
                p.set_exception(serveError(
                    ServeError::Code::Shed,
                    "mixq serve: queue full — request shed"));
                return res;
            }
        }

        r.result = std::move(p);
        queue_.push_back(std::move(r));
        queuedItems_ += items;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        atomicMax(queuePeakItems_, queuedItems_);
    }
    cv_.notify_one();
    res.status = ServeStatus::Accepted;
    return res;
}

void
BatchServer::stop(bool drain)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!stopping_) {
            stopping_ = true;
            drain_ = drain;
        }
    }
    cv_.notify_all();
    roomCv_.notify_all();
    pauseCv_.notify_all();
    {
        std::lock_guard<std::mutex> jl(joinMu_);
        for (std::thread& t : workers_)
            if (t.joinable())
                t.join();
    }
    std::deque<Request> leftovers;
    {
        std::lock_guard<std::mutex> lk(mu_);
        leftovers.swap(queue_);
        queuedItems_ = 0;
    }
    for (Request& r : leftovers) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        r.result.set_exception(serveError(
            ServeError::Code::Stopped,
            "mixq serve: server stopped before request ran"));
    }
}

LoadResult
BatchServer::reloadArtifact(const std::string& path)
{
    std::lock_guard<std::mutex> rl(reloadMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ || dead_)
            return {LoadStatus::Unavailable,
                    "mixq serve: reload refused — server is not "
                    "serving"};
    }

    // Stage read-only while traffic keeps flowing: decode + validate
    // everything, touch nothing. Any failure returns here with the
    // old weights still serving.
    Module& probe = planned_ ? *sharedModel_ : *replicas_[0];
    DeployStage stage;
    LoadResult r = stageDeployArtifact(path, probe, stage);
    if (!r.ok())
        return r;

    // Quiesce: park every live worker between batches, then install
    // the staged panels. Workers never observe a half-swapped model —
    // a batch runs entirely on the old weights or entirely on the
    // new ones.
    std::unique_lock<std::mutex> lk(mu_);
    pauseRequested_ = true;
    cv_.notify_all();
    pauseCv_.wait(lk, [&] {
        return pausedWorkers_ == liveWorkers_ || stopping_;
    });
    if (planned_) {
        stage.apply(*sharedModel_);
        // The executors staged per-layer eval constants (BN's frozen
        // affine, pack versions) at construction — re-stage them
        // against the swapped model while everyone is parked.
        for (auto& exec : execs_)
            exec->restage();
    } else {
        for (Module* m : replicas_)
            stage.apply(*m);
    }
    reloadGen_.fetch_add(1, std::memory_order_relaxed);
    pauseRequested_ = false;
    lk.unlock();
    cv_.notify_all();
    return {};
}

BatchServer::Stats
BatchServer::stats() const
{
    Stats s;
    s.requests = doneRequests_.load(std::memory_order_relaxed);
    s.items = doneItems_.load(std::memory_order_relaxed);
    s.batches = doneBatches_.load(std::memory_order_relaxed);
    s.arenaCapacity = arenaCapacity_.load(std::memory_order_relaxed);
    s.planPeakBytes = plan_.peakBytes;
    s.arenaHighWater =
        arenaHighWater_.load(std::memory_order_relaxed);
    s.arenaOverflows =
        arenaOverflows_.load(std::memory_order_relaxed);
    s.scratchBytes = scratchBytes_.load(std::memory_order_relaxed);
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.expired = expired_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.faults = faults_.load(std::memory_order_relaxed);
    s.queuePeakItems =
        queuePeakItems_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(mu_);
        s.workersAlive = liveWorkers_;
    }
    return s;
}

bool
BatchServer::nextBatch(std::vector<Request>& batch, size_t& items)
{
    std::unique_lock<std::mutex> lk(mu_);

    auto isExpired = [](const Request& r) {
        return r.hasDeadline &&
               std::chrono::steady_clock::now() >= r.expiry;
    };
    // Settle an expired queue head: its future fails with Expired,
    // its items leave the admission budget.
    auto dropExpiredFront = [&] {
        Request victim = std::move(queue_.front());
        queue_.pop_front();
        queuedItems_ -= victim.items;
        expired_.fetch_add(1, std::memory_order_relaxed);
        roomCv_.notify_all();
        victim.result.set_exception(serveError(
            ServeError::Code::Expired,
            "mixq serve: request deadline expired before serving"));
    };

    for (;;) {
        cv_.wait(lk, [&] {
            return stopping_ || pauseRequested_ || !queue_.empty();
        });
        if (pauseRequested_ && !stopping_) {
            // reloadArtifact() wants the model to itself: park here
            // between batches until the swap is done.
            ++pausedWorkers_;
            pauseCv_.notify_all();
            cv_.wait(lk,
                     [&] { return !pauseRequested_ || stopping_; });
            --pausedWorkers_;
            pauseCv_.notify_all();
            continue;
        }
        while (!queue_.empty() && isExpired(queue_.front()))
            dropExpiredFront();
        if (queue_.empty()) {
            if (stopping_)
                return false; // nothing left (or drained)
            continue;         // heads all expired; wait for more
        }
        if (stopping_ && !drain_)
            return false; // stop() fails the leftovers
        break;
    }

    // Work-conserving gather: the head plus the FIFO prefix already
    // queued behind it, up to maxBatch items, and the batch starts at
    // once — an idle worker never waits for a batch to fill. A request
    // that does not fit ships the batch as-is (no reordering past
    // it); expired requests are reaped, not gathered.
    items = queue_.front().items;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    while (!queue_.empty()) {
        if (isExpired(queue_.front())) {
            dropExpiredFront();
            continue;
        }
        const size_t fi = queue_.front().items;
        if (items + fi > opt_.maxBatch)
            break;
        items += fi;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    queuedItems_ -= items;
    roomCv_.notify_all();
    return true;
}

void
BatchServer::workerLoop(size_t worker)
{
#ifdef _OPENMP
    // omp_set_num_threads is a per-thread ICV: setting it on the
    // constructing thread would not affect this worker.
    if (opt_.ompThreads > 0)
        omp_set_num_threads(opt_.ompThreads);
#endif
    bool abnormal = false;
    try {
        if (planned_)
            plannedWorkerBody(worker);
        else
            replicaWorkerBody(worker);
    } catch (...) {
        // Permanent worker death: warmup failure or an injected
        // kill. The batch (if any) already settled its futures; the
        // exit bookkeeping below keeps the rest of the server
        // serving — or sweeps the queue when this was the last one.
        abnormal = true;
    }
    // stop() joins this thread; whatever the joiner then does with the
    // model must be ordered after this worker's pool threads too.
    tsanJoinOmpTeam();
    workerExit(abnormal);
}

void
BatchServer::workerExit(bool abnormal)
{
    std::deque<Request> orphans;
    {
        std::lock_guard<std::mutex> lk(mu_);
        MIXQ_ASSERT(liveWorkers_ > 0, "serve: worker exit underflow");
        --liveWorkers_;
        if (abnormal && liveWorkers_ == 0 && !stopping_) {
            // Last worker died with the server still open: nothing
            // will ever drain the queue, so fail it now and refuse
            // everything after — futures must settle, not hang.
            dead_ = true;
            orphans.swap(queue_);
            queuedItems_ = 0;
        }
    }
    cv_.notify_all();
    roomCv_.notify_all();
    pauseCv_.notify_all();
    for (Request& r : orphans) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        r.result.set_exception(serveError(
            ServeError::Code::WorkerFault,
            "mixq serve: every worker died — request cannot be "
            "served"));
    }
}

void
BatchServer::replicaWorkerBody(size_t worker)
{
    Module& model = *replicas_[worker];
    std::vector<size_t> ws = traits_.itemShape;
    ws[traits_.batchAxis] = opt_.maxBatch;

    // Warmup contract (serve/arena.hh): grow every layer-internal
    // scratch container to its max-batch capacity on the real heap
    // before the first scoped forward. Two passes reach the fixed
    // point (first sizes, second verifies), the third measures the
    // steady-state transient footprint for arena sizing. A warmup
    // failure (real OOM or the injected one) is a permanent worker
    // death — it propagates to workerLoop.
    faultOnWarmup();
    size_t measured = 0;
    {
        Tensor wx(ws); // zeros: id 0 is valid for embedding models
        model.forward(wx, false);
        model.forward(wx, false);
        ScopedHeapAllocCount m;
        Tensor y = model.forward(wx, false);
        measured = m.bytes();
    }
    size_t cap = opt_.arenaBytes;
    cap = std::max(cap, 2 * measured + (size_t(64) << 10));
    cap = std::max(cap, plan_.peakBytes + (size_t(64) << 10));
    Arena arena(cap);
    if (worker == 0)
        arenaCapacity_.store(cap, std::memory_order_relaxed);

    size_t batchesDone = 0;
    uint64_t myGen = reloadGen_.load(std::memory_order_relaxed);
    for (;;) {
        std::vector<Request> batch;
        size_t items = 0;
        if (!nextBatch(batch, items))
            break;
        uint64_t gen = reloadGen_.load(std::memory_order_relaxed);
        if (gen != myGen) {
            // Weights were hot-swapped: give the zero-alloc steady-
            // state assertion its settling grace again (fresh panels
            // may lazily repack on first touch).
            myGen = gen;
            batchesDone = 0;
        }
        uint64_t seq = batchSeq_.fetch_add(1, std::memory_order_relaxed);
        if (!runBatch(model, arena, batch, items, batchesDone, seq))
            throw WorkerKillFault();
        ++batchesDone;
    }
}

void
BatchServer::plannedWorkerBody(size_t worker)
{
    PlanExecutor& exec = *execs_[worker];

    // Warmup: the slab is already pre-faulted and every serve scratch
    // ctor-sized, but this thread's lazily-grown state — the GEMM
    // backend's thread_local packing buffers, the OpenMP runtime's
    // team and its one-thread path — must reach steady capacity before
    // the Debug zero-alloc window opens. Two rounds of a batch-1 run
    // (item-parallel steps on this thread alone) and a max-batch run
    // (the full team once maxBatch exceeds it, PlanExecutor::teamFor)
    // on zeroed input (id 0 is a valid token for the embedding models)
    // get there. The input buffer's slab range is recycled by later
    // buffers (liveness packing), so each run re-zeroes it — the
    // per-batch gatherInto plays that role in steady state.
    faultOnWarmup();
    for (int round = 0; round < 2; ++round)
        for (size_t n : {size_t(1), opt_.maxBatch}) {
            std::memset(exec.inputData(), 0, exec.inputBytes());
            exec.run(n);
        }

    size_t batchesDone = 0;
    uint64_t myGen = reloadGen_.load(std::memory_order_relaxed);
    for (;;) {
        std::vector<Request> batch;
        size_t items = 0;
        if (!nextBatch(batch, items))
            break;
        uint64_t gen = reloadGen_.load(std::memory_order_relaxed);
        if (gen != myGen) {
            myGen = gen;
            batchesDone = 0;
        }
        uint64_t seq = batchSeq_.fetch_add(1, std::memory_order_relaxed);
        if (!runBatchPlanned(exec, batch, items, batchesDone, seq))
            throw WorkerKillFault();
        ++batchesDone;
    }
}

void
BatchServer::failBatch(std::vector<Request>& batch,
                       std::exception_ptr e)
{
    for (Request& r : batch) {
        try {
            r.result.set_exception(e);
        } catch (const std::future_error&) {
            // already satisfied by a partial scatter
        }
    }
}

bool
BatchServer::runBatch(Module& model, Arena& arena,
                      std::vector<Request>& batch, size_t items,
                      size_t batchesDone, uint64_t seq)
{
    (void)batchesDone;
    bool keepRunning = true;
    try {
        faultOnBatch(seq);
        Tensor xb, yb;
#ifndef NDEBUG
        const size_t overflowsBefore = arena.overflowCount();
#endif
        {
            ArenaScope scope(arena);
#ifndef NDEBUG
            ScopedHeapAllocCount heap;
#endif
            xb = gather(batch, items);
            yb = model.forward(xb, false);
#ifndef NDEBUG
            // Steady state: every transient lives in the arena. The
            // first batches may still settle promise plumbing; an
            // arena overflow falls back to the heap legitimately.
            if (batchesDone >= 2 &&
                arena.overflowCount() == overflowsBefore)
                MIXQ_ASSERT(
                    heap.count() == 0,
                    "serve: steady-state forward allocated on the "
                    "heap — a layer grew scratch outside warmup");
#endif
        }
        // Responses are deep copies on the real heap: they outlive
        // this batch's arena region. yb stays readable until reset.
        scatter(yb, items, batch);
        xb = Tensor(); // arena-backed; the frees are no-ops
        yb = Tensor();
        arena.reset();
        doneItems_.fetch_add(items, std::memory_order_relaxed);
        doneRequests_.fetch_add(batch.size(),
                                std::memory_order_relaxed);
    } catch (const WorkerKillFault&) {
        // Permanent death: fail this batch, then tell the loop to
        // retire this worker. Survivors keep draining the queue.
        faults_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(batch.size(), std::memory_order_relaxed);
        failBatch(batch, std::current_exception());
        arena.reset();
        keepRunning = false;
    } catch (...) {
        // Contained fault: only this batch's futures fail; the
        // worker and the model replica keep serving.
        faults_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(batch.size(), std::memory_order_relaxed);
        failBatch(batch, std::current_exception());
        arena.reset();
    }
    atomicMax(arenaHighWater_, arena.highWater());
    atomicMax(arenaOverflows_, arena.overflowCount());
    doneBatches_.fetch_add(1, std::memory_order_relaxed);
    return keepRunning;
}

bool
BatchServer::runBatchPlanned(PlanExecutor& exec,
                             std::vector<Request>& batch,
                             size_t items, size_t batchesDone,
                             uint64_t seq)
{
    (void)batchesDone;
    bool keepRunning = true;
    try {
        faultOnBatch(seq);
#ifndef NDEBUG
        const uint64_t arenaBefore = arenaAllocCount();
        ScopedHeapAllocCount heap;
#endif
        gatherInto(batch, items, exec.inputData());
        exec.run(items);
#ifndef NDEBUG
        // The executed plan's contract is stronger than the arena
        // path's: a steady-state batch touches neither the heap nor
        // any bump arena — every activation lands at its planned
        // slab offset and all scratch was ctor-sized. The first
        // batches may still settle promise plumbing.
        if (batchesDone >= 2) {
            MIXQ_ASSERT(
                heap.count() == 0,
                "serve: steady-state planned batch allocated on the "
                "heap — a layer grew scratch outside prepareServe");
            MIXQ_ASSERT(
                arenaAllocCount() == arenaBefore,
                "serve: planned batch took a bump-arena allocation — "
                "activations must come from the plan slab");
        }
#endif
        // Responses are deep copies: the slab's buffers are reused
        // verbatim by the next batch.
        scatterRaw(exec.outputData(), exec.outputShape(items), items,
                   batch);
        doneItems_.fetch_add(items, std::memory_order_relaxed);
        doneRequests_.fetch_add(batch.size(),
                                std::memory_order_relaxed);
    } catch (const WorkerKillFault&) {
        faults_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(batch.size(), std::memory_order_relaxed);
        failBatch(batch, std::current_exception());
        keepRunning = false;
    } catch (...) {
        faults_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(batch.size(), std::memory_order_relaxed);
        failBatch(batch, std::current_exception());
    }
    doneBatches_.fetch_add(1, std::memory_order_relaxed);
    return keepRunning;
}

Tensor
BatchServer::gather(const std::vector<Request>& batch,
                    size_t items) const
{
    std::vector<size_t> bs = traits_.itemShape;
    bs[traits_.batchAxis] = items;
    Tensor xb(bs);
    gatherInto(batch, items, xb.data());
    return xb;
}

void
BatchServer::gatherInto(const std::vector<Request>& batch,
                        size_t items, float* dst) const
{
    if (traits_.batchAxis == 0) {
        const size_t itemElems = shapeSize(traits_.itemShape);
        size_t off = 0;
        for (const Request& r : batch) {
            std::copy_n(r.x.data(), r.items * itemElems,
                        dst + off * itemElems);
            off += r.items;
        }
    } else { // axis 1: [T, N, ...] — interleave per timestep
        const size_t t = traits_.itemShape[0];
        size_t inner = 1;
        for (size_t i = 2; i < traits_.itemShape.size(); ++i)
            inner *= traits_.itemShape[i];
        size_t off = 0;
        for (const Request& r : batch) {
            for (size_t tt = 0; tt < t; ++tt)
                std::copy_n(r.x.data() + tt * r.items * inner,
                            r.items * inner,
                            dst + (tt * items + off) * inner);
            off += r.items;
        }
    }
}

void
BatchServer::scatter(const Tensor& yb, size_t items,
                     std::vector<Request>& batch) const
{
    scatterRaw(yb.data(), yb.shape(), items, batch);
}

void
BatchServer::scatterRaw(const float* yb,
                        const std::vector<size_t>& ys, size_t items,
                        std::vector<Request>& batch) const
{
    const size_t total = shapeSize(ys);
    std::vector<Tensor> outs;
    outs.reserve(batch.size());
    if (traits_.timeMajorOut) {
        // yb rows are [T*B, C] grouped by timestep; a request's rows
        // are t*k + i for its k items.
        const size_t t = traits_.itemShape[0];
        MIXQ_ASSERT(ys[0] == t * items,
                    "serve: time-major output row count mismatch");
        const size_t cols = total / (t * items);
        size_t off = 0;
        for (const Request& r : batch) {
            Tensor o({t * r.items, cols});
            for (size_t tt = 0; tt < t; ++tt)
                std::copy_n(yb + (tt * items + off) * cols,
                            r.items * cols,
                            o.data() + tt * r.items * cols);
            outs.push_back(std::move(o));
            off += r.items;
        }
    } else {
        MIXQ_ASSERT(ys[0] == items,
                    "serve: output row count mismatch");
        const size_t rowElems = total / items;
        const std::vector<size_t> tail(ys.begin() + 1, ys.end());
        size_t off = 0;
        for (const Request& r : batch) {
            std::vector<size_t> os;
            os.push_back(r.items);
            os.insert(os.end(), tail.begin(), tail.end());
            Tensor o(std::move(os));
            std::copy_n(yb + off * rowElems, r.items * rowElems,
                        o.data());
            outs.push_back(std::move(o));
            off += r.items;
        }
    }
    for (size_t i = 0; i < batch.size(); ++i)
        batch[i].result.set_value(std::move(outs[i]));
}

} // namespace mixq
