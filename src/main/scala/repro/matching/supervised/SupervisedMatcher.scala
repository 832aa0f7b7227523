package repro.matching.supervised

import repro.core.LocalSpark
import repro.data.Pairs
import repro.embed.{ModelSpec, Vectorizer}
import repro.util.Det

/** Supervised matching harness (paper §4.3 / §5.3).
  *
  * BERT / SentenceBERT models run through the EMTransformer-lite path and
  * static models through the DeepMatcher-lite path; both share the same
  * pair-featurized logistic head (the paths differ in the simulated
  * encoder cost per example, reproducing Table 6's time shape: XLNet
  * slowest, S-MiniLM fastest, DistilBERT/S-DistilRoBERTa ≈ half of
  * RoBERTa, static models mid-pack).
  */
object SupervisedMatcher {

  final case class Result(modelCode: String, dataset: String, f1: Double,
                          trainSecs: Double, testSecs: Double, chosenEpoch: Int)

  /** Simulated per-example encoder units (multiply-adds) for fine-tuning.
    * layers × dim × 4 for transformers (fwd+bwd over Q/K/V/FFN), with an
    * extra factor for XLNet's permutation-LM overhead; a flat bi-LSTM +
    * HighwayNet cost for the static models' DeepMatcher path.
    */
  def encoderUnits(m: ModelSpec): Long =
    if (m.isStatic) 17_000L
    else {
      val base = m.effLayers.toLong * m.dim * 4
      if (m.code == "XT") (base * 1.5).toLong else base
    }

  /** Burn `units` multiply-adds on the buffer (simulated encoder pass).
    * Coefficients sum below 1 with a constant drive, so the recurrence is
    * bounded but never at a fixed point for the 0.5-initialized buffer
    * that [[run]] sets up.
    */
  def simulatedEncoderWork(buf: Array[Float], units: Long): Unit = {
    var u = 0L
    var i = 0
    while (u < units) {
      val j = (i + 1) % buf.length
      buf(i) = buf(i) * 0.999f + buf(j) * 0.0005f + 1e-4f
      i = j
      u += 1
    }
  }

  /** Training epochs and the seed of the logistic head, salted per model. */
  private val Epochs = 12
  private val Seed = 7L

  /** Featurizes, trains and tests `model` on one DSM's rendered pairs. */
  def run(pairs: Pairs, model: ModelSpec): Result = {
    val code = model.code
    val nameHash = Det.strHash(pairs.profile.name)
    // Fine-tuning adapts the dynamic encoders to the task, suppressing part
    // of their representation noise; static embeddings are frozen.
    val sigmaScale = if (model.isStatic) 1.0 else 0.4

    LocalSpark.session // a first fan-out's engine start is not the model's t_t
    val t0 = System.nanoTime()
    // featurize in tasks: embed both sentences, build pair features; the
    // splits come back in order, one after the other
    val feats = LocalSpark.fanOut(pairs.all) { r =>
      val v1 = Vectorizer.embed(code, r.sent1, Det.seed(nameHash, 1L, r.pairId), sigmaScale)
      val v2 = Vectorizer.embed(code, r.sent2, Det.seed(nameHash, 2L, r.pairId), sigmaScale)
      (PairFeatures.features(v1, v2), r.label)
    }
    val (train, rest) = feats.splitAt(pairs.train.length)
    val (valid, test) = rest.splitAt(pairs.valid.length)

    val units = encoderUnits(model)
    val buf = Array.fill(4096)(0.5f)
    val trained = LogisticTrainer.train(
      train.map(_._1), train.map(_._2),
      valid.map(_._1), valid.map(_._2),
      epochs = Epochs, seed = Det.seed(Seed, Det.strHash(code)))
    // fine-tuning pays the encoder's forward and backward pass per example
    // and epoch
    simulatedEncoderWork(buf, units * train.length * Epochs)
    val tTrain = (System.nanoTime() - t0) / 1e9

    val t1 = System.nanoTime()
    // prediction pays the forward pass (≈ half of fwd+bwd) per example
    simulatedEncoderWork(buf, units / 2 * test.length)
    val preds = test.map { case (x, _) => trained.predict(x) }
    val f1 = LogisticTrainer.f1Of(preds.toSeq, test.map(_._2).toSeq)
    val tTest = (System.nanoTime() - t1) / 1e9

    Result(code, pairs.profile.name, f1, tTrain, tTest, trained.chosenEpoch)
  }
}
