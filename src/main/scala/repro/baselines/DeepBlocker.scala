package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.blocking.ExactKnnBlocker
import repro.core.LocalSpark
import repro.data.EntityRow
import repro.embed.{ModelRegistry, Tokenizer, Vectorizer}
import repro.matching.supervised.{LogisticTrainer, PairFeatures}
import repro.util.Det

/** DeepBlocker baseline (Thirumuruganathan et al., PVLDB 2021) — the
  * paper's state-of-the-art deep-learning blocking comparator: FastText
  * embeddings → learned Auto-Encoder → self-supervised pair classifier →
  * nearest-neighbour candidate generation (DESIGN.md §1).
  *
  * Kept faithfully stochastic (seed parameter), trained (real SGD), and
  * k-sensitive: the re-score below makes run-time grow with k as the paper
  * reports.
  *
  * [[block]] sorts both sides by id and vectorizes them with FastText in
  * one [[LocalSpark.fanOut]]. A tied-weight linear auto-encoder is trained
  * by SGD reconstruction on the first 1,500 index vectors, and a logistic
  * pair classifier on auto-labelled pairs of the first 600 index entities:
  * each entity against its token dropout (positive) and against a random
  * entity of the sample (negative, unless it draws itself).
  * [[ExactKnnBlocker.search]] over-fetches max(2k, k + 2) candidates per
  * query in the encoded space; a query's candidates are its slice of the
  * neighbours' nids. A shared-value fan-out, whose shared value is the
  * encoder weights and the index ids and vectors, re-scores each (query,
  * candidate) with a full encoder pass and keeps the k best per query by
  * (score desc, nid asc). Nothing is shuffled.
  */
object DeepBlocker {

  val EncDim = 128
  private val Ft     = ModelRegistry.FT // DeepBlocker's embedding model
  private val FtDim  = Ft.dim
  private val AeLr   = 0.02f // the auto-encoder's SGD step
  private val DropoutRate = 0.3 // share of tokens a self-supervised positive drops

  /** (query id, index id) candidates, and the seconds blocking took. */
  final case class Blocked(candidates: Array[(Long, Long)], secs: Double)

  /** Train a tied-weight linear auto-encoder on sample vectors. Inputs are
    * unit-normalized defensively — SGD on a linear AE diverges on inputs
    * with norm ≫ 1.
    */
  private[baselines] def trainAutoEncoder(sample0: Array[Array[Float]], seed: Long,
                                          epochs: Int = 5): Array[Float] = {
    val sample = sample0.map(v => Det.normalize(v.clone()))
    // W is FtDim x EncDim, row-major; encode z = W^T x, decode x^ = W z
    val w = new Array[Float](FtDim * EncDim)
    var i = 0
    while (i < w.length) {
      w(i) = ((Det.uniform(Det.seed(seed, 0xae0L, i.toLong)) - 0.5) * 0.2).toFloat
      i += 1
    }
    val z   = new Array[Float](EncDim)
    val err = new Array[Float](FtDim)
    var e = 0
    while (e < epochs) {
      var s = 0
      while (s < sample.length) {
        val x = sample(s)
        encodeInto(w, x, z)
        // err = W z − x
        var r = 0
        while (r < FtDim) {
          var acc = 0.0f
          var c = 0
          while (c < EncDim) { acc += w(r * EncDim + c) * z(c); c += 1 }
          err(r) = acc - x(r)
          r += 1
        }
        // dW ≈ err zᵀ (decoder grad; tied-encoder term omitted — standard simplification)
        r = 0
        while (r < FtDim) {
          val er = err(r) * AeLr
          var c = 0
          while (c < EncDim) { w(r * EncDim + c) -= er * z(c); c += 1 }
          r += 1
        }
        s += 1
      }
      e += 1
    }
    w
  }

  private[baselines] def encodeInto(w: Array[Float], x: Array[Float], z: Array[Float]): Unit = {
    java.util.Arrays.fill(z, 0.0f)
    var r = 0
    while (r < FtDim) {
      val xr = x(r)
      if (xr != 0.0f) {
        var c = 0
        while (c < EncDim) { z(c) += w(r * EncDim + c) * xr; c += 1 }
      }
      r += 1
    }
  }

  private[baselines] def encode(w: Array[Float], x: Array[Float]): Array[Float] = {
    val z = new Array[Float](EncDim)
    encodeInto(w, x, z)
    Det.normalize(z)
    z
  }

  /** Token dropout for self-supervised positives. */
  private def dropout(sentence: String, seed: Long): String =
    Tokenizer.tokenize(sentence).zipWithIndex
      .filter { case (_, i) => Det.uniform(Det.seed(seed, i.toLong)) >= DropoutRate }
      .map(_._1).mkString(" ")

  /** Block: every query entity keeps its k top-scored index candidates.
    * Both sides are sorted by id first, so the training samples, and with
    * them the candidates, do not depend on the order of either input.
    */
  def block(queries: Array[EntityRow], index: Array[EntityRow], k: Int, tag: String, seed: Long = 17L): Blocked = {
    LocalSpark.session // a first fan-out's engine start is not DeepBlocker's time
    val t0 = System.nanoTime()
    val (qs, is) = (queries.sortBy(_.id), index.sortBy(_.id))

    // 1. FastText vectorization (DeepBlocker's default embedding)
    val Seq(qv, iv) = Vectorizer.vectorize(Ft.code, Seq(qs -> (tag + "#dbq"), is -> (tag + "#dbi")))

    // 2. Auto-Encoder trained on an index sample (stochastic via seed)
    val w = trainAutoEncoder(iv.take(1500).map(_._2), seed)
    def encoded(vs: Array[(Long, Array[Float])]) = vs.map { case (id, v) => (id, encode(w, v)) }

    // 3. Self-supervision: auto-labelled positives (entity vs its token
    //    dropout) and negatives (random pairs within the sample, so each
    //    negative is another sample's anchor, embedded once)
    val selfSample = is.take(600)
    val anchors = selfSample.map(e => encode(w, Vectorizer.embed(Ft.code, e.sentence, Det.seed(seed, 3L, e.id))))
    val feats = selfSample.zip(anchors).flatMap { case (e, v) =>
      val vp = encode(w, Vectorizer.embed(Ft.code, dropout(e.sentence, Det.seed(seed, 4L, e.id)), Det.seed(seed, 5L, e.id)))
      val j  = Det.nextInt(Det.seed(seed, 6L, e.id), selfSample.length)
      Seq((PairFeatures.features(v, vp), 1),
          (PairFeatures.features(v, anchors(j)), if (selfSample(j).id == e.id) 1 else 0))
    }
    val classifier = LogisticTrainer.train(
      feats.map(_._1), feats.map(_._2), feats.map(_._1), feats.map(_._2),
      epochs = 6, seed = seed)

    // 4. Over-fetch 2k candidates in encoded space, re-score each with the
    //    classifier (full encoder pass per candidate — the k-dependent
    //    cost) and keep the k best per query by (score desc, nid asc)
    val overK = math.max(2 * k, k + 2)
    val nb = ExactKnnBlocker.search(encoded(qv), encoded(iv), overK)
    val queryCands =
      qv.zipWithIndex.map { case ((qid, v), q) => (qid, v, nb.nids.slice(q * nb.k, (q + 1) * nb.k)) }
    val top = LocalSpark.fanOut((w, iv.map(_._1), iv.map(_._2)), queryCands) { case ((w, ids, vecs), slice) =>
      slice.flatMap { case (qid, v, nids) =>
        val scored = nids.map { nid =>
          val f = PairFeatures.features(encode(w, v), encode(w, vecs(java.util.Arrays.binarySearch(ids, nid))))
          (classifier.margin(f), nid)
        }
        scored.sortWith { case ((s1, n1), (s2, n2)) => s1 > s2 || (s1 == s2 && n1 < n2) }
          .take(k).map { case (_, nid) => (qid, nid) }
      }
    }.flatten
    Blocked(top, (System.nanoTime() - t0) / 1e9)
  }

  /** [[Blocked]] with the candidates as an (id1, id2) frame. */
  final case class BlockedFrame(candidates: DataFrame, secs: Double)

  /** [[block]] on two (id, attrs, sentence) frames, collected once. Kept
    * for erperf; ROADMAP item 1 deletes it, with [[BlockedFrame]].
    */
  def block(queries: DataFrame, index: DataFrame, k: Int, tag: String, seed: Long): BlockedFrame = {
    import queries.sparkSession.implicits._
    def rows(side: DataFrame) = side.select("id", "attrs", "sentence").as[EntityRow].collect()
    val b = block(rows(queries), rows(index), k, tag, seed)
    BlockedFrame(b.candidates.toSeq.toDF("id1", "id2"), b.secs)
  }
}
