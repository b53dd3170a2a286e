#include "serve/fault.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <new>
#include <thread>

namespace mixq {

#ifndef MIXQ_NO_FAULT_INJECTION

namespace {

// Armed is the fast-path gate: every hook loads it once and returns
// when clear. The plan itself is only read while armed, and arming
// is test-scoped (no concurrent arm vs hook execution), so the plan
// needs no lock of its own.
std::atomic<bool> gArmed{false};
FaultPlan gPlan;
// The holdAtBatch latch: armFaultPlan closes it, releaseFaultHold and
// disarmFaultPlan open it; gHeld records that a worker reached it.
std::mutex gHoldMu;
std::condition_variable gHoldCv;
bool gHoldOpen = true;
bool gHeld = false;

void
setHoldOpen(bool open)
{
    {
        std::lock_guard<std::mutex> lk(gHoldMu);
        gHoldOpen = open;
        if (!open)
            gHeld = false;
    }
    gHoldCv.notify_all();
}

} // namespace

void
armFaultPlan(const FaultPlan& plan)
{
    gPlan = plan;
    setHoldOpen(false);
    gArmed.store(true, std::memory_order_release);
}

void
disarmFaultPlan()
{
    gArmed.store(false, std::memory_order_release);
    setHoldOpen(true);
}

void
awaitFaultHold()
{
    std::unique_lock<std::mutex> lk(gHoldMu);
    gHoldCv.wait(lk, [] { return gHeld; });
}

void
releaseFaultHold()
{
    setHoldOpen(true);
}

bool
faultPlanArmed()
{
    return gArmed.load(std::memory_order_acquire);
}

void
faultOnBatch(uint64_t batchIndex)
{
    if (!gArmed.load(std::memory_order_acquire))
        return;
    long k = long(batchIndex);
    if (gPlan.stallEveryBatchUs > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(gPlan.stallEveryBatchUs));
    if (gPlan.holdAtBatch == k) {
        std::unique_lock<std::mutex> lk(gHoldMu);
        gHeld = true;
        gHoldCv.notify_all();
        gHoldCv.wait(lk, [] { return gHoldOpen; });
    }
    if (gPlan.killWorkerAtBatch == k)
        throw WorkerKillFault();
    if (gPlan.throwInForwardAtBatch == k)
        throw FaultInjected("injected forward fault at batch " +
                            std::to_string(k));
}

void
faultOnWarmup()
{
    if (!gArmed.load(std::memory_order_acquire))
        return;
    if (gPlan.failWarmupAlloc)
        throw std::bad_alloc();
}

void
faultOnRecordFileRead(std::vector<uint8_t>& fileBytes)
{
    if (!gArmed.load(std::memory_order_acquire))
        return;
    // Flip one bit of the last payload byte: the file stays
    // structurally parseable, so the reader's checksum verification
    // is what must catch it.
    if (gPlan.corruptOnRead && !fileBytes.empty())
        fileBytes.back() ^= 0x01;
}

void
faultOnRecordWrite(uint64_t recordIndex)
{
    if (!gArmed.load(std::memory_order_acquire))
        return;
    if (gPlan.failWriteAtRecord == long(recordIndex))
        throw FaultInjected("injected write failure at record " +
                            std::to_string(recordIndex));
}

#else // MIXQ_NO_FAULT_INJECTION

void
armFaultPlan(const FaultPlan&)
{
}

void
disarmFaultPlan()
{
}

bool
faultPlanArmed()
{
    return false;
}

void
awaitFaultHold()
{
}

void
releaseFaultHold()
{
}

void
faultOnBatch(uint64_t)
{
}

void
faultOnWarmup()
{
}

void
faultOnRecordFileRead(std::vector<uint8_t>&)
{
}

void
faultOnRecordWrite(uint64_t)
{
}

#endif // MIXQ_NO_FAULT_INJECTION

} // namespace mixq
