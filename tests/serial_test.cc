/**
 * @file
 * Serialization layer tests (src/serial/): the named state tree that
 * keys every record, checkpoint save -> load round trips (bit-equal
 * state, bit-equal forward, bit-identical loss-trajectory resume),
 * deploy artifact round trips (served integer outputs bit-identical
 * to the in-process backend, CNN and RNN), and the rejection paths —
 * truncation, corruption, foreign magic, version and architecture
 * mismatches must all die with a message naming the problem; an
 * unsizable stream and a shape whose byte count wraps get their exact
 * failure class from the recoverable loader.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "data/synth_images.hh"
#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/optim.hh"
#include "nn/rnn_models.hh"
#include "nn/trainer.hh"
#include "serial/checkpoint.hh"
#include "serial/deploy.hh"
#include "serial/record_io.hh"
#include "serve/fault.hh"
#include "util/rng.hh"

namespace mixq {
namespace {

std::string
tmpPath(const std::string& name)
{
    return testing::TempDir() + "mixq_serial_" + name;
}

std::vector<uint8_t>
readAll(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long n = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> buf;
    buf.resize(size_t(n));
    EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return buf;
}

void
writeAll(const std::string& path, const std::vector<uint8_t>& buf)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
}

void
expectParamsBitEqual(Module& a, Module& b)
{
    auto pa = a.params(), pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->w.size(), pb[i]->w.size());
        EXPECT_EQ(std::memcmp(pa[i]->w.data(), pb[i]->w.data(),
                              pa[i]->w.size() * sizeof(float)),
                  0)
            << "param " << i << " (" << pa[i]->name << ") differs";
    }
}

// ------------------------------------------------------------------
// Named state tree
// ------------------------------------------------------------------

TEST(NamedTree, PathsAreUniqueAndOrderMatchesParams)
{
    Rng rng(3);
    auto model = makeMiniResNet(10, rng, 8);
    std::vector<NamedParam> named = namedParams(*model);
    std::vector<Param*> flat = model->params();

    ASSERT_EQ(named.size(), flat.size());
    std::set<std::string> seen;
    for (size_t i = 0; i < named.size(); ++i) {
        EXPECT_EQ(named[i].p, flat[i])
            << "named traversal must visit params in params() order";
        EXPECT_TRUE(seen.insert(named[i].path).second)
            << "duplicate path " << named[i].path;
        EXPECT_EQ(findParam(*model, named[i].path), named[i].p);
    }

    // Sequential children are positional, block children semantic.
    bool sawBlockPath = false;
    for (const NamedParam& np : named)
        sawBlockPath |= np.path.find("conv1.") != std::string::npos;
    EXPECT_TRUE(sawBlockPath)
        << "BasicBlock sub-modules should carry semantic names";
    EXPECT_EQ(findParam(*model, "no.such.param"), nullptr);
}

TEST(NamedTree, RnnTaskModelsAreNamedModules)
{
    Rng rng(4);
    LstmLm lm(20, 8, 12, 2, rng);
    std::vector<NamedParam> named = namedParams(lm);
    std::set<std::string> paths;
    for (const NamedParam& np : named)
        EXPECT_TRUE(paths.insert(np.path).second);
    EXPECT_NE(findParam(lm, "emb.w"), nullptr);
    EXPECT_NE(findParam(lm, "lstm0.wx"), nullptr);
    EXPECT_NE(findParam(lm, "lstm1.wh"), nullptr);
    EXPECT_NE(findParam(lm, "head.w"), nullptr);
    EXPECT_EQ(named.size(), lm.params().size());
}

// ------------------------------------------------------------------
// Checkpoint round trip
// ------------------------------------------------------------------

TEST(Checkpoint, RoundTripRestoresStateAndForwardBitIdentical)
{
    LabeledImages train = makeImageDataset(ImageTask::Easy, 64, 1);
    Rng rng(11);
    auto model = makeTinyConvNet(train.numClasses, rng, 4);
    QConfig qcfg;
    QatContext qat(qcfg);
    qat.attach(model->params());
    TrainCfg cfg;
    cfg.epochs = 2;
    cfg.batch = 16;
    trainClassifier(*model, train, cfg, &qat);

    const std::string path = tmpPath("ckpt_roundtrip.bin");
    saveCheckpoint(path, *model, &qat);

    Rng rng2(99); // different init — everything must come from disk
    auto loaded = makeTinyConvNet(train.numClasses, rng2, 4);
    CheckpointLoadResult res = loadCheckpoint(path, *loaded);
    EXPECT_EQ(res.paramsLoaded, loaded->params().size());
    ASSERT_NE(res.qat, nullptr);

    expectParamsBitEqual(*model, *loaded);

    // Same eval forward, bit for bit (BN running stats + activation
    // calibrations restored).
    Tensor x = makeImageDataset(ImageTask::Easy, 8, 5).images;
    Tensor y0 = model->forward(x, false);
    Tensor y1 = loaded->forward(x, false);
    ASSERT_EQ(y0.size(), y1.size());
    EXPECT_EQ(std::memcmp(y0.data(), y1.data(),
                          y0.size() * sizeof(float)),
              0);

    // Full ADMM state restored.
    EXPECT_EQ(res.qat->finalized(), qat.finalized());
    EXPECT_EQ(int(res.qat->config().scheme), int(qat.config().scheme));
    EXPECT_EQ(res.qat->config().bits, qat.config().bits);
    EXPECT_EQ(res.qat->config().rho, qat.config().rho);
    ASSERT_EQ(res.qat->entries().size(), qat.entries().size());
    for (size_t i = 0; i < qat.entries().size(); ++i) {
        const auto& a = qat.entries()[i];
        const auto& b = res.qat->entries()[i];
        ASSERT_EQ(a.admm.z().size(), b.admm.z().size());
        EXPECT_EQ(std::memcmp(a.admm.z().data(), b.admm.z().data(),
                              a.admm.z().size() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(a.admm.u().data(), b.admm.u().data(),
                              a.admm.u().size() * sizeof(float)),
                  0);
        EXPECT_EQ(a.proj.rowScheme, b.proj.rowScheme);
        EXPECT_EQ(a.proj.rowAlpha, b.proj.rowAlpha);
        EXPECT_EQ(a.proj.numSp2, b.proj.numSp2);
        EXPECT_EQ(a.proj.threshold, b.proj.threshold);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumedTrainingReproducesLossTrajectory)
{
    LabeledImages train = makeImageDataset(ImageTask::Easy, 64, 2);
    QConfig qcfg;
    TrainCfg stage;
    stage.epochs = 2;
    stage.batch = 16;
    stage.seed = 7;

    // Reference: train 2 epochs, checkpoint, keep training the same
    // in-process objects for 2 more epochs.
    Rng rng(21);
    auto model = makeTinyConvNet(train.numClasses, rng, 4);
    QatContext qat(qcfg);
    qat.attach(model->params());
    trainClassifier(*model, train, stage, &qat);
    const std::string path = tmpPath("ckpt_resume.bin");
    saveCheckpoint(path, *model, &qat);
    std::vector<double> contLoss;
    TrainCfg stage2 = stage;
    stage2.epochLoss = &contLoss;
    trainClassifier(*model, train, stage2, &qat);

    // Resume: a fresh process stand-in restores the checkpoint and
    // runs the same second stage. Same trajectory, bit for bit.
    Rng rng2(77);
    auto resumed = makeTinyConvNet(train.numClasses, rng2, 4);
    CheckpointLoadResult res = loadCheckpoint(path, *resumed);
    ASSERT_NE(res.qat, nullptr);
    std::vector<double> resLoss;
    TrainCfg stage3 = stage;
    stage3.epochLoss = &resLoss;
    trainClassifier(*resumed, train, stage3, res.qat.get());

    ASSERT_EQ(contLoss.size(), resLoss.size());
    for (size_t e = 0; e < contLoss.size(); ++e)
        EXPECT_EQ(contLoss[e], resLoss[e]) << "epoch " << e;
    expectParamsBitEqual(*model, *resumed);
    std::remove(path.c_str());
}

TEST(Checkpoint, MomentumCarryingResumeReproducesTrajectory)
{
    // The test above restarts a fresh Sgd in both arms, so it never
    // exercises momentum. Here the optimizer is caller-owned, its
    // velocities are serialized ("opt/<path>.v"), and a restored run
    // must continue the velocity trajectory bit for bit — while a
    // cold optimizer (velocities back at zero) must diverge.
    LabeledImages train = makeImageDataset(ImageTask::Easy, 64, 9);
    TrainCfg stage;
    stage.epochs = 2;
    stage.batch = 16;
    stage.seed = 7;

    Rng rng(22);
    auto model = makeTinyConvNet(train.numClasses, rng, 4);
    Sgd sgd(model->params(), stage.lr, stage.momentum,
            stage.weightDecay);
    trainClassifier(*model, train, stage, nullptr, &sgd);

    // Two epochs of momentum-0.9 training leave real velocity state.
    bool anyVelocity = false;
    for (size_t i = 0; i < sgd.params().size(); ++i)
        for (size_t j = 0; j < sgd.velocity(i).size(); ++j)
            anyVelocity |= sgd.velocity(i)[j] != 0.0f;
    ASSERT_TRUE(anyVelocity);

    const std::string path = tmpPath("ckpt_momentum.bin");
    saveCheckpoint(path, *model, nullptr, &sgd);
    // Snapshot the velocities as of the checkpoint — continuing the
    // in-process run below advances them past the saved state.
    std::vector<std::vector<float>> velAtSave;
    for (size_t i = 0; i < sgd.params().size(); ++i)
        velAtSave.emplace_back(sgd.velocity(i).data(),
                               sgd.velocity(i).data() +
                                   sgd.velocity(i).size());

    std::vector<double> contLoss;
    TrainCfg stage2 = stage;
    stage2.epochLoss = &contLoss;
    trainClassifier(*model, train, stage2, nullptr, &sgd);

    // Warm resume: restore params AND velocities.
    Rng rng2(78);
    auto resumed = makeTinyConvNet(train.numClasses, rng2, 4);
    CheckpointLoadResult res = loadCheckpoint(path, *resumed);
    Sgd sgd2(resumed->params(), stage.lr, stage.momentum,
             stage.weightDecay);
    size_t restored = restoreOptimizerState(res, *resumed, sgd2);
    EXPECT_EQ(restored, sgd2.params().size());
    for (size_t i = 0; i < velAtSave.size(); ++i) {
        ASSERT_EQ(sgd2.velocity(i).size(), velAtSave[i].size());
        EXPECT_EQ(std::memcmp(sgd2.velocity(i).data(),
                              velAtSave[i].data(),
                              velAtSave[i].size() * sizeof(float)),
                  0)
            << "velocity " << i << " did not round-trip";
    }
    std::vector<double> resLoss;
    TrainCfg stage3 = stage;
    stage3.epochLoss = &resLoss;
    trainClassifier(*resumed, train, stage3, nullptr, &sgd2);

    ASSERT_EQ(contLoss.size(), resLoss.size());
    for (size_t e = 0; e < contLoss.size(); ++e)
        EXPECT_EQ(contLoss[e], resLoss[e]) << "epoch " << e;
    expectParamsBitEqual(*model, *resumed);

    // Cold resume: params restored, velocities left at zero. The
    // trajectory must diverge — this is exactly the silent drift a
    // checkpoint without optimizer state causes.
    Rng rng3(79);
    auto cold = makeTinyConvNet(train.numClasses, rng3, 4);
    loadCheckpoint(path, *cold);
    Sgd sgdCold(cold->params(), stage.lr, stage.momentum,
                stage.weightDecay);
    std::vector<double> coldLoss;
    TrainCfg stage4 = stage;
    stage4.epochLoss = &coldLoss;
    trainClassifier(*cold, train, stage4, nullptr, &sgdCold);

    ASSERT_EQ(coldLoss.size(), contLoss.size());
    bool differs = false;
    for (size_t e = 0; e < contLoss.size(); ++e)
        differs |= coldLoss[e] != contLoss[e];
    EXPECT_TRUE(differs)
        << "zero-velocity resume should not reproduce the "
           "momentum-carrying trajectory";
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Deploy artifact round trip
// ------------------------------------------------------------------

TEST(Deploy, ServedCnnForwardBitIdenticalToInProcessBackend)
{
    LabeledImages train = makeImageDataset(ImageTask::Easy, 64, 3);
    Rng rng(31);
    auto model = makeTinyConvNet(train.numClasses, rng, 4);
    QConfig qcfg;
    QatContext qat(qcfg);
    qat.attach(model->params());
    TrainCfg cfg;
    cfg.epochs = 2;
    cfg.batch = 16;
    trainClassifier(*model, train, cfg, &qat);

    InferenceSession inProc(*model, &qat, InferBackend::Int);
    Tensor x = makeImageDataset(ImageTask::Easy, 8, 6).images;
    Tensor y0 = inProc.run(x);

    const std::string path = tmpPath("deploy_cnn.bin");
    saveDeployArtifact(path, *model, qat);

    Rng rng2(555); // arbitrary init; serving uses codes only
    auto served = makeTinyConvNet(train.numClasses, rng2, 4);
    InferenceSession sess(*served, path);
    EXPECT_EQ(sess.backend(), InferBackend::Int);
    EXPECT_GT(sess.layersSwitched(), 0u);
    Tensor y1 = sess.run(x);

    ASSERT_EQ(y0.size(), y1.size());
    EXPECT_EQ(std::memcmp(y0.data(), y1.data(),
                          y0.size() * sizeof(float)),
              0)
        << "artifact-served int forward must be bit-identical";

    // The served session holds no float weights to fall back to.
    EXPECT_DEATH(sess.setBackend(InferBackend::Float),
                 "pinned to the Int backend");
    std::remove(path.c_str());
}

TEST(Deploy, ServedRnnForwardBitIdenticalToInProcessBackend)
{
    size_t vocab = 20, t = 6, n = 5;
    Rng dataRng(41);
    std::vector<int> ids(t * n);
    for (int& id : ids)
        id = int(dataRng.uniform(0.0, double(vocab) - 0.001));

    Rng rng(43);
    LstmLm lm(vocab, 10, 16, 2, rng);
    QConfig qcfg;
    QatContext qat(qcfg);
    qat.attach(lm.params());
    lm.setActQuant(qcfg.actBits, true);
    lm.forward(ids, t, n, true); // calibrate
    qat.finalize();
    applyInferBackend(lm, InferBackend::Int, &qat);
    Tensor y0 = lm.forward(ids, t, n, false);

    const std::string path = tmpPath("deploy_rnn.bin");
    saveDeployArtifact(path, lm, qat);

    Rng rng2(999);
    LstmLm served(vocab, 10, 16, 2, rng2);
    size_t adopted = loadDeployArtifact(path, served);
    EXPECT_EQ(adopted, 5u); // 2 cells x (wx, wh) + head
    Tensor y1 = served.forward(ids, t, n, false);

    ASSERT_EQ(y0.size(), y1.size());
    EXPECT_EQ(std::memcmp(y0.data(), y1.data(),
                          y0.size() * sizeof(float)),
              0);
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Rejection paths
// ------------------------------------------------------------------

TEST(SerialReject, DamagedAndMismatchedFilesAreFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    LabeledImages train = makeImageDataset(ImageTask::Easy, 16, 4);
    Rng rng(51);
    auto model = makeTinyConvNet(train.numClasses, rng, 4);

    const std::string ckpt = tmpPath("reject_ckpt.bin");
    saveCheckpoint(ckpt, *model);

    // Artifact fixture: projected weights + one calibration pass.
    QConfig qcfg;
    QatContext qat(qcfg);
    qat.attach(model->params());
    model->setActQuant(qcfg.actBits, true);
    model->forward(train.images, true); // calibrate quantizers
    qat.finalize();
    const std::string artifact = tmpPath("reject_deploy.bin");
    saveDeployArtifact(artifact, *model, qat);

    auto loadCkpt = [&](const std::string& p) {
        Rng r(1);
        auto m = makeTinyConvNet(train.numClasses, r, 4);
        loadCheckpoint(p, *m);
    };

    // Truncation: the record walk runs out of bytes.
    std::vector<uint8_t> whole = readAll(ckpt);
    const std::string cut = tmpPath("reject_cut.bin");
    std::vector<uint8_t> cutBuf(whole.begin(),
                                whole.begin() + whole.size() * 3 / 5);
    writeAll(cut, cutBuf);
    EXPECT_DEATH(loadCkpt(cut), "truncated checkpoint file");

    // Bit damage in a structurally intact file: checksum mismatch.
    std::vector<uint8_t> flip = whole;
    flip.back() ^= 0x40;
    const std::string bad = tmpPath("reject_flip.bin");
    writeAll(bad, flip);
    EXPECT_DEATH(loadCkpt(bad), "checksum mismatch");

    // Foreign magic: a deploy artifact is not a checkpoint.
    EXPECT_DEATH(loadCkpt(artifact), "not a mixq checkpoint file");

    // Future format version.
    std::vector<uint8_t> vers = whole;
    vers[8] = 9; // u32 version lives right after the 8-byte magic
    const std::string newer = tmpPath("reject_vers.bin");
    writeAll(newer, vers);
    EXPECT_DEATH(loadCkpt(newer),
                 "unsupported checkpoint format version 9");

    // Architecture mismatch: a valid checkpoint for another model.
    EXPECT_DEATH(
        {
            Rng r(2);
            auto other = makeMiniResNet(train.numClasses, r, 8);
            loadCheckpoint(ckpt, *other);
        },
        "does not match this model");

    // The artifact loader shares the container validation.
    std::vector<uint8_t> awhole = readAll(artifact);
    std::vector<uint8_t> acut(awhole.begin(),
                              awhole.begin() + awhole.size() / 2);
    const std::string acutPath = tmpPath("reject_acut.bin");
    writeAll(acutPath, acut);
    EXPECT_DEATH(
        {
            Rng r(3);
            auto m = makeTinyConvNet(train.numClasses, r, 4);
            loadDeployArtifact(acutPath, *m);
        },
        "truncated deploy artifact file");

    for (const std::string& p :
         {ckpt, artifact, cut, bad, newer, acutPath})
        std::remove(p.c_str());
}

// ------------------------------------------------------------------
// Crash-safe writes and recoverable loads
// ------------------------------------------------------------------

TEST(SerialAtomicWrite, FailedSaveLeavesThePublishedFileUntouched)
{
    Rng rng(61);
    auto model = makeTinyConvNet(4, rng, 4);
    const std::string path = tmpPath("atomic_ckpt.bin");
    saveCheckpoint(path, *model);
    const std::vector<uint8_t> before = readAll(path);

    // A save that dies mid-stream — here an injected write failure at
    // record 3, standing in for a crash or full disk — must leave the
    // previously published file byte-identical and no temp debris.
    model->params()[0]->w[0] += 1.0f; // make the new state different
    FaultPlan plan;
    plan.failWriteAtRecord = 3;
    armFaultPlan(plan);
    EXPECT_THROW(saveCheckpoint(path, *model), FaultInjected);
    disarmFaultPlan();

    EXPECT_EQ(readAll(path), before)
        << "a failed save must not touch the committed file";
    std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr) << "abandoned temp file left behind";
    if (tmp)
        std::fclose(tmp);

    // The same save without the fault commits the new state.
    saveCheckpoint(path, *model);
    EXPECT_NE(readAll(path), before);
    Rng rng2(62);
    auto loaded = makeTinyConvNet(4, rng2, 4);
    loadCheckpoint(path, *loaded);
    expectParamsBitEqual(*model, *loaded);
    std::remove(path.c_str());
}

TEST(SerialRecoverable, TryLoadCheckpointReportsPreciseFailureClass)
{
    Rng rng(63);
    auto model = makeTinyConvNet(4, rng, 4);
    const std::string ckpt = tmpPath("try_ckpt.bin");
    saveCheckpoint(ckpt, *model);
    const std::vector<uint8_t> whole = readAll(ckpt);

    auto classify = [&](const std::string& p) {
        Rng r(1);
        auto m = makeTinyConvNet(4, r, 4);
        CheckpointLoadResult out;
        LoadResult res = tryLoadCheckpoint(p, *m, out);
        EXPECT_FALSE(res.ok());
        EXPECT_FALSE(res.message.empty());
        return res.status;
    };

    EXPECT_EQ(classify(tmpPath("try_absent.bin")),
              LoadStatus::OpenFailed);

    const std::string cut = tmpPath("try_cut.bin");
    writeAll(cut, {whole.begin(), whole.begin() + whole.size() / 2});
    EXPECT_EQ(classify(cut), LoadStatus::Truncated);

    std::vector<uint8_t> flip = whole;
    flip.back() ^= 0x40;
    const std::string bad = tmpPath("try_flip.bin");
    writeAll(bad, flip);
    EXPECT_EQ(classify(bad), LoadStatus::ChecksumMismatch);

    std::vector<uint8_t> vers = whole;
    vers[8] = 9;
    const std::string newer = tmpPath("try_vers.bin");
    writeAll(newer, vers);
    EXPECT_EQ(classify(newer), LoadStatus::VersionMismatch);

    // Architecture mismatch: valid container, wrong model.
    {
        Rng r(2);
        auto other = makeMiniResNet(4, r, 8);
        CheckpointLoadResult out;
        LoadResult res = tryLoadCheckpoint(ckpt, *other, out);
        EXPECT_EQ(res.status, LoadStatus::Mismatch) << res.message;
    }

    // And the happy path still loads through the recoverable API.
    {
        Rng r(3);
        auto m = makeTinyConvNet(4, r, 4);
        CheckpointLoadResult out;
        LoadResult res = tryLoadCheckpoint(ckpt, *m, out);
        EXPECT_TRUE(res.ok()) << res.message;
        EXPECT_EQ(out.paramsLoaded, m->params().size());
        expectParamsBitEqual(*model, *m);
    }

    EXPECT_STREQ(loadStatusName(LoadStatus::ChecksumMismatch),
                 "checksum-mismatch");
    for (const std::string& p : {ckpt, cut, bad, newer})
        std::remove(p.c_str());
}

// A stream that cannot report its size (a FIFO: the seek fails and
// ftell gives -1) is an open failure, not a resize to SIZE_MAX.
TEST(SerialRecoverable, UnsizableStreamIsAnOpenFailure)
{
    const std::string fifo = tmpPath("fifo.bin");
    std::remove(fifo.c_str());
    ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
    // Holding the FIFO open read-write gives it a writer, so the
    // loader's read-only open returns at once instead of blocking.
    int fd = open(fifo.c_str(), O_RDWR | O_NONBLOCK);
    ASSERT_GE(fd, 0);
    LoadResult err;
    auto rf = RecordFile::tryOpen(fifo, "MIXQTEST", 1, "test", err);
    EXPECT_EQ(rf, nullptr);
    EXPECT_EQ(err.status, LoadStatus::OpenFailed) << err.message;
    close(fd);
    std::remove(fifo.c_str());
}

// A record whose shape product wraps size_t (2^32 x 2^32 floats
// claims 2^66 bytes, which wraps to 0) must not match an empty
// payload: the file is otherwise well formed, checksum included.
TEST(SerialRecoverable, ShapeWhoseByteCountWrapsIsCorrupt)
{
    std::vector<uint8_t> region;
    auto put = [&](const void* p, size_t n) {
        const uint8_t* b = static_cast<const uint8_t*>(p);
        region.insert(region.end(), b, b + n);
    };
    const uint32_t nameLen = 1;
    put(&nameLen, 4);
    put("w", 1);
    const uint8_t dtypeAndRank[2] = {uint8_t(RecDType::F32), 2};
    put(dtypeAndRank, 2);
    const uint64_t shape[2] = {uint64_t(1) << 32, uint64_t(1) << 32};
    put(shape, sizeof(shape));
    const uint64_t payload = 0;
    put(&payload, 8);

    uint64_t checksum = 1469598103934665603ull; // FNV-1a 64
    for (uint8_t b : region) {
        checksum ^= b;
        checksum *= 1099511628211ull;
    }
    std::vector<uint8_t> file(8);
    std::memcpy(file.data(), "MIXQTEST", 8);
    const uint32_t version = 1;
    const uint64_t count = 1;
    for (auto [p, n] : {std::pair<const void*, size_t>{&version, 4},
                        {&count, 8},
                        {&checksum, 8}}) {
        const uint8_t* b = static_cast<const uint8_t*>(p);
        file.insert(file.end(), b, b + n);
    }
    file.insert(file.end(), region.begin(), region.end());
    const std::string path = tmpPath("wrap_shape.bin");
    writeAll(path, file);

    LoadResult err;
    auto rf = RecordFile::tryOpen(path, "MIXQTEST", 1, "test", err);
    EXPECT_EQ(rf, nullptr);
    EXPECT_EQ(err.status, LoadStatus::Corrupt) << err.message;
    std::remove(path.c_str());
}

TEST(SerialRecoverable, FailedArtifactStageLeavesTheModelUntouched)
{
    LabeledImages train = makeImageDataset(ImageTask::Easy, 16, 8);
    Rng rng(64);
    auto model = makeTinyConvNet(train.numClasses, rng, 4);
    QConfig qcfg;
    QatContext qat(qcfg);
    qat.attach(model->params());
    model->setActQuant(qcfg.actBits, true);
    model->forward(train.images, true);
    qat.finalize();
    const std::string artifact = tmpPath("try_deploy.bin");
    saveDeployArtifact(artifact, *model, qat);

    // The victim model keeps serving its own (float) weights while
    // every failed tryLoad leaves its forward bit-identical.
    Rng rng2(65);
    auto victim = makeTinyConvNet(train.numClasses, rng2, 4);
    Tensor x = makeImageDataset(ImageTask::Easy, 4, 9).images;
    Tensor y0 = victim->forward(x, false);
    auto expectUntouched = [&] {
        Tensor y1 = victim->forward(x, false);
        ASSERT_EQ(y0.size(), y1.size());
        EXPECT_EQ(std::memcmp(y0.data(), y1.data(),
                              y0.size() * sizeof(float)),
                  0)
            << "a refused artifact must not mutate the model";
    };

    size_t adopted = 0;
    LoadResult res =
        tryLoadDeployArtifact(tmpPath("try_no_artifact.bin"), *victim,
                              adopted);
    EXPECT_EQ(res.status, LoadStatus::OpenFailed);
    expectUntouched();

    // A checkpoint is a foreign file to the artifact loader.
    const std::string ckpt = tmpPath("try_foreign_ckpt.bin");
    saveCheckpoint(ckpt, *model);
    res = tryLoadDeployArtifact(ckpt, *victim, adopted);
    EXPECT_EQ(res.status, LoadStatus::Foreign) << res.message;
    expectUntouched();

    // Bytes damaged in flight (injected on read): checksum catches it.
    FaultPlan plan;
    plan.corruptOnRead = true;
    armFaultPlan(plan);
    res = tryLoadDeployArtifact(artifact, *victim, adopted);
    disarmFaultPlan();
    EXPECT_EQ(res.status, LoadStatus::ChecksumMismatch) << res.message;
    expectUntouched();

    // Wrong architecture: staging fails after decoding, still no
    // mutation — the stage/apply split is what guarantees this.
    {
        Rng r(4);
        auto other = makeMiniResNet(train.numClasses, r, 8);
        DeployStage stage;
        LoadResult sr = stageDeployArtifact(artifact, *other, stage);
        EXPECT_EQ(sr.status, LoadStatus::Mismatch) << sr.message;
        EXPECT_FALSE(stage.staged());
    }

    // The good artifact loads recoverably and flips the backend.
    res = tryLoadDeployArtifact(artifact, *victim, adopted);
    EXPECT_TRUE(res.ok()) << res.message;
    EXPECT_GT(adopted, 0u);
    InferenceSession inProc(*model, &qat, InferBackend::Int);
    Tensor yInt = inProc.run(x);
    Tensor yServed = victim->forward(x, false);
    ASSERT_EQ(yInt.size(), yServed.size());
    EXPECT_EQ(std::memcmp(yInt.data(), yServed.data(),
                          yInt.size() * sizeof(float)),
              0);

    for (const std::string& p : {artifact, ckpt})
        std::remove(p.c_str());
}

} // namespace
} // namespace mixq
