/**
 * @file
 * The qat-export workload: MSQ QAT (QConfig defaults) of MiniResNet on
 * ImageTask::Easy, then the deploy artifact — saved once per training
 * cycle and reloaded into fresh models. Each cycle starts from the same
 * initial weights, so every cycle must reproduce the first one's
 * per-epoch losses bit for bit; the reloaded model's Int outputs on a
 * probe batch must equal the in-process backend's.
 *
 * Untraced cycles call trainClassifier. trainClassifier is one call,
 * so traced cycles drive the public calls it makes, in the same order,
 * with a span around each; equal losses prove it is the same program.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <optional>
#include <type_traits>

#include "bench.hh"
#include "data/synth_images.hh"
#include "infer/session.hh"
#include "nn/loss.hh"
#include "nn/models.hh"
#include "nn/optim.hh"
#include "nn/rnn.hh"
#include "serial/deploy.hh"
#include "util/rng.hh"

using namespace mixq;

namespace perfbench {

namespace {

constexpr size_t kTrainImages = 128;
constexpr size_t kProbeImages = 8;
constexpr int kEpochs = 2;
constexpr size_t kBatch = 32;
constexpr size_t kLoadsPerCycle = 8;
constexpr uint64_t kModelSeed = 7;

/** Span names of the traced training loop. */
struct QatNames
{
    explicit QatNames(Trace& tr)
        : cycle(tr.name("qat.cycle")),
          step(tr.name("train.step")),
          zeroGrad(tr.name("train.zero_grad")),
          forward(tr.name("train.forward")),
          loss(tr.name("train.loss")),
          backward(tr.name("train.backward")),
          penalty(tr.name("quant.penalty")),
          sgd(tr.name("train.sgd")),
          epochUpdate(tr.name("quant.epoch_update")),
          finalize(tr.name("quant.finalize")),
          save(tr.name("serial.save")),
          stage(tr.name("serial.stage")),
          apply(tr.name("serial.apply"))
    {
    }
    uint32_t cycle, step, zeroGrad, forward, loss, backward, penalty, sgd,
        epochUpdate, finalize, save, stage, apply;
};

/** Time @p fn as a span named @p name under @p parent. */
template <class Fn>
auto
spanned(Trace& tr, uint32_t name, uint64_t parent, uint64_t req, Fn&& fn)
{
    Clock::time_point a = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        tr.add(0, name, parent, req, a, Clock::now());
    } else {
        auto r = fn();
        tr.add(0, name, parent, req, a, Clock::now());
        return r;
    }
}

/**
 * trainClassifier's loop, call for call (see nn/trainer.cc), with a
 * span around each public call. Appends the per-epoch mean losses.
 */
void
tracedTrain(Module& model, QatContext& qat, const LabeledImages& data,
            const TrainCfg& cfg, std::vector<double>& epochLoss,
            Trace& tr, const QatNames& nm, uint64_t parent)
{
    setRnnBatchParallel(cfg.rnnBatchParallel);
    model.setActQuant(qat.config().quantizeActivations
                          ? qat.config().actBits
                          : 8,
                      qat.config().quantizeActivations);
    Sgd sgd(model.params(), cfg.lr, cfg.momentum, cfg.weightDecay);
    Rng rng(cfg.seed);
    std::vector<size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<size_t> shape = data.images.shape();
    const size_t item = data.images.size() / shape[0];

    uint64_t stepNo = 0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        sgd.setLr(cfg.cosine ? cosineLr(cfg.lr, epoch, cfg.epochs)
                             : stepLr(cfg.lr, epoch, cfg.stepEvery));
        spanned(tr, nm.epochUpdate, parent, uint64_t(epoch),
                [&] { qat.epochUpdate(); });
        rng.shuffle(order);

        double lossSum = 0.0;
        size_t batches = 0;
        for (size_t b0 = 0; b0 < data.size(); b0 += cfg.batch) {
            const size_t b1 = std::min(b0 + cfg.batch, data.size());
            const Clock::time_point s0 = Clock::now();
            const uint64_t step = tr.add(0, nm.step, parent, stepNo, s0, s0);
            shape[0] = b1 - b0;
            Tensor x(shape);
            std::vector<int> y(b1 - b0);
            for (size_t i = b0; i < b1; ++i) {
                std::memcpy(x.data() + (i - b0) * item,
                            data.images.data() + order[i] * item,
                            item * sizeof(float));
                y[i - b0] = data.labels[order[i]];
            }
            spanned(tr, nm.zeroGrad, step, stepNo, [&] { sgd.zeroGrad(); });
            Tensor logits = spanned(tr, nm.forward, step, stepNo,
                                    [&] { return model.forward(x, true); });
            Tensor dlogits;
            double loss = spanned(tr, nm.loss, step, stepNo, [&] {
                return softmaxCrossEntropy(logits, y, dlogits);
            });
            spanned(tr, nm.backward, step, stepNo,
                    [&] { model.backward(dlogits); });
            loss += spanned(tr, nm.penalty, step, stepNo, [&] {
                return qat.addPenaltyGradsAndPenalty();
            });
            spanned(tr, nm.sgd, step, stepNo, [&] { sgd.step(); });
            tr.finish(step, Clock::now());
            lossSum += loss;
            ++batches;
            ++stepNo;
        }
        epochLoss.push_back(lossSum /
                            double(std::max<size_t>(batches, 1)));
    }
    spanned(tr, nm.finalize, parent, 0, [&] { qat.finalize(); });
}

std::unique_ptr<Module>
makeModel(size_t classes)
{
    Rng rng(kModelSeed);
    return makeMiniResNet(classes, rng, 8);
}

} // namespace

struct QatState
{
    std::string artifactPath;
    LabeledImages train;
    Tensor probe;
    TrainCfg cfg;
    std::vector<double> refLoss; //!< per-epoch losses of the first cycle
    double artifactBytes = 0.0;
};

QatBench::QatBench(uint64_t seed, const std::string& artifactPath)
    : st_(std::make_unique<QatState>())
{
    st_->artifactPath = artifactPath;
    st_->train = makeImageDataset(ImageTask::Easy, kTrainImages, seed);
    st_->probe =
        makeImageDataset(ImageTask::Easy, kProbeImages, seed + 1).images;
    st_->cfg.epochs = kEpochs;
    st_->cfg.batch = kBatch;
    st_->cfg.seed = seed;

    // Warm-up epoch on a throwaway model: first-touch allocations and
    // the OpenMP team are paid here, not in the first timed cycle.
    auto model = makeModel(st_->train.numClasses);
    QatContext qat{QConfig{}};
    qat.attach(model->params());
    TrainCfg warm = st_->cfg;
    warm.epochs = 1;
    trainClassifier(*model, st_->train, warm, &qat);
}

QatBench::~QatBench()
{
    std::remove(st_->artifactPath.c_str());
}

E2e
QatBench::run(double seconds, Trace* tr, Report& rep)
{
    QatState& s = *st_;
    std::optional<QatNames> nm;
    if (tr)
        nm.emplace(*tr);
    const size_t steps =
        size_t(s.cfg.epochs) * ((s.train.size() + kBatch - 1) / kBatch);
    const double images = double(s.train.size()) * double(s.cfg.epochs);
    std::vector<double> stepMs, saveUs, loadUs;
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    uint64_t c = 0;
    for (; c == 0 || Clock::now() < end; ++c) {
        auto model = makeModel(s.train.numClasses);
        QatContext qat{QConfig{}};
        qat.attach(model->params());
        std::vector<double> losses;
        const Clock::time_point a = Clock::now();
        uint64_t cycle = 0;
        if (tr) {
            cycle = tr->add(0, nm->cycle, 0, c, a, a);
            tracedTrain(*model, qat, s.train, s.cfg, losses, *tr, *nm,
                        cycle);
            tr->finish(cycle, Clock::now());
        } else {
            TrainCfg cfg = s.cfg;
            cfg.epochLoss = &losses;
            trainClassifier(*model, s.train, cfg, &qat);
        }
        stepMs.push_back(usBetween(a, Clock::now()) / double(steps) * 1e-3);

        ++rep.attempted;
        if (s.refLoss.empty())
            s.refLoss = losses;
        else if (losses.size() != s.refLoss.size() ||
                 std::memcmp(losses.data(), s.refLoss.data(),
                             losses.size() * sizeof(double)) != 0)
            rep.fail("training cycle " + std::to_string(c) +
                     ": per-epoch losses differ from trainClassifier's");

        // Export, then the in-process Int outputs on the probe batch.
        Clock::time_point t = Clock::now();
        saveDeployArtifact(s.artifactPath, *model, qat);
        saveUs.push_back(usBetween(t, Clock::now()));
        if (tr)
            tr->add(0, nm->save, cycle, c, t, Clock::now());
        s.artifactBytes =
            double(std::filesystem::file_size(s.artifactPath));
        applyInferBackend(*model, InferBackend::Int, &qat);
        const Tensor want = model->forward(s.probe, false);

        for (size_t l = 0; l < kLoadsPerCycle; ++l) {
            auto fresh = makeModel(s.train.numClasses);
            LoadResult lr;
            t = Clock::now();
            if (tr) {
                // tryLoadDeployArtifact is stage + apply; time both.
                DeployStage stage;
                lr = stageDeployArtifact(s.artifactPath, *fresh, stage);
                const Clock::time_point mid = Clock::now();
                if (lr.ok())
                    stage.apply(*fresh);
                tr->add(0, nm->stage, cycle, c, t, mid);
                tr->add(0, nm->apply, cycle, c, mid, Clock::now());
            } else {
                size_t adopted = 0;
                lr = tryLoadDeployArtifact(s.artifactPath, *fresh, adopted);
            }
            loadUs.push_back(usBetween(t, Clock::now()));
            ++rep.attempted;
            if (!lr.ok()) {
                rep.fail("artifact load: " + lr.message);
            } else if (l + 1 == kLoadsPerCycle) {
                ++rep.attempted;
                if (!bitEqual(fresh->forward(s.probe, false), want))
                    rep.fail("reloaded model's Int outputs differ from "
                             "the in-process backend's");
            }
        }
    }

    const double wallS = usBetween(t0, Clock::now()) * 1e-6;
    E2e e;
    e.latencyP50Ms = quantile(stepMs, 0.50);
    e.latencyP99Ms = quantile(stepMs, 0.99);
    // Whole cycles per second of wall time: training, export, reloads
    // and checks, not a restatement of the step time.
    e.itemsPerS = images * double(c) / wallS;
    e.trainImagesPerS = images / double(steps) / (e.latencyP50Ms * 1e-3);
    e.artifactSaveMs = median(saveUs) * 1e-3;
    e.artifactLoadMs = median(loadUs) * 1e-3;
    return e;
}

void
QatBench::layerMetrics(const Trace& tr, Report& rep) const
{
    auto ms = [&](const char* name) { return tr.medianUs(name) * 1e-3; };
    rep.addLayer("train.forward_ms", ms("train.forward"), "ms");
    rep.addLayer("train.backward_ms", ms("train.backward"), "ms");
    rep.addLayer("train.loss_ms", ms("train.loss"), "ms");
    rep.addLayer("train.sgd_ms", ms("train.sgd") + ms("train.zero_grad"),
                 "ms");
    rep.addLayer("quant.penalty_ms", ms("quant.penalty"), "ms");
    rep.addLayer("quant.epoch_update_ms", ms("quant.epoch_update"), "ms");
    rep.addLayer("quant.finalize_ms", ms("quant.finalize"), "ms");
    rep.addLayer("serial.save_ms", ms("serial.save"), "ms");
    rep.addLayer("serial.stage_ms", ms("serial.stage"), "ms");
    rep.addLayer("serial.apply_ms", ms("serial.apply"), "ms");
    rep.addLayer("serial.artifact_bytes", st_->artifactBytes, "B");
}

} // namespace perfbench
