/**
 * @file
 * Deterministic fault injection for the serving and serialization
 * layers. A FaultPlan arms a small set of named failure triggers —
 * throw inside a worker forward at batch k, kill a worker thread
 * permanently, stall a worker, fail an allocation during warmup,
 * hold a worker until the test releases it, corrupt a record file's
 * bytes as they are read, or fail a record write — and the hook
 * points compiled into BatchServer and the record container consult
 * it. With no plan armed every hook is a
 * single relaxed atomic load, so the hooks stay compiled into every
 * build type and the chaos tests (tests/serve_fault_test.cc) exercise
 * the exact binaries CI ships; defining MIXQ_NO_FAULT_INJECTION
 * compiles them out entirely for a paranoid production build.
 *
 * The injections are deterministic by construction: triggers fire on
 * exact batch / record indices drawn from monotonic counters, never
 * on timers or randomness, so a chaos run is reproducible and its
 * surviving outputs can be bit-compared against a fault-free run.
 *
 * Arming is test-scoped: armFaultPlan() installs the plan globally,
 * disarmFaultPlan() removes it. Arm/disarm must not race hook
 * execution (tests arm before standing the server up and disarm
 * after stopping it); the hooks themselves are safe to call from any
 * number of worker threads concurrently.
 */

#ifndef MIXQ_SERVE_FAULT_HH
#define MIXQ_SERVE_FAULT_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mixq {

/** Deterministic fault triggers; -1 / 0 values are "never fire". */
struct FaultPlan
{
    /** Throw FaultInjected from the worker forward at batch k. */
    long throwInForwardAtBatch = -1;
    /** Kill the worker thread serving batch k (permanent death;
        its batch fails, survivors drain the queue). */
    long killWorkerAtBatch = -1;
    /** Sleep this long before every forward (slow-worker stall —
        the deterministic way to make offered load exceed capacity). */
    long stallEveryBatchUs = 0;
    /** Block the worker before the forward of batch k until
        releaseFaultHold() (or disarmFaultPlan()): lets a test queue
        work behind a busy worker with no timing assumption. */
    long holdAtBatch = -1;
    /** Throw std::bad_alloc from the worker's warmup. */
    bool failWarmupAlloc = false;
    /** Flip one byte of a record file's payload as it is read
        (drives the reader's checksum-mismatch path). */
    bool corruptOnRead = false;
    /** Throw FaultInjected before writing record k of a stream. */
    long failWriteAtRecord = -1;
};

/** The structured error every injected serving fault throws. */
class FaultInjected : public std::runtime_error
{
  public:
    explicit FaultInjected(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * The injected "this worker is dead" fault. Distinct from
 * FaultInjected so the server can tell a contained batch failure
 * (fail the batch, keep serving) from a permanent worker death
 * (fail the batch, retire the worker, let survivors drain).
 */
class WorkerKillFault : public FaultInjected
{
  public:
    WorkerKillFault() : FaultInjected("injected worker death") {}
};

/** Install @p plan globally (see file comment for the race rules). */
void armFaultPlan(const FaultPlan& plan);

/** Remove the armed plan; hooks go back to no-ops. */
void disarmFaultPlan();

/** Whether a plan is currently armed. */
bool faultPlanArmed();

/** Block until a worker is blocked by holdAtBatch. */
void awaitFaultHold();

/** Let a worker blocked by holdAtBatch (now or later) go on. */
void releaseFaultHold();

// ------------------------------------------------------- hook points
// Called by the serving/serialization code; no-ops when disarmed.

/**
 * Worker-forward hook, called with the server's monotonic batch
 * sequence number before the batch runs: may stall, hold, throw
 * FaultInjected, or throw WorkerKillFault per the armed plan.
 */
void faultOnBatch(uint64_t batchIndex);

/** Warmup hook: throws std::bad_alloc when failWarmupAlloc is set. */
void faultOnWarmup();

/** Record-reader hook: corrupts @p fileBytes in place (one byte in
    the record region) when corruptOnRead is set. */
void faultOnRecordFileRead(std::vector<uint8_t>& fileBytes);

/** Record-writer hook, called with the index of the record about to
    be written: throws FaultInjected at failWriteAtRecord. */
void faultOnRecordWrite(uint64_t recordIndex);

} // namespace mixq

#endif // MIXQ_SERVE_FAULT_HH
