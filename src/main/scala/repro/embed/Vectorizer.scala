package repro.embed

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.sql.DataFrame
import repro.core.LocalSpark
import repro.data.{EntityRow, Lexicon}
import repro.util.Det

/** Runtime state of a simulated model: the lookup tables / layer weights
  * built at initialization and *used* during vectorization. Building this
  * is the "Init" cost of Table 4; everything here is deterministic in the
  * model code.
  */
final class ModelRuntime(val spec: ModelSpec) {

  /** Vocabulary hash table: maps a token hash bucket to a seed. Static
    * models load large dictionaries (FastText's n-gram table dominates);
    * dynamic models load a subword vocab.
    */
  val vocabTable: Array[Long] = {
    val t = new Array[Long](spec.vocabInit)
    var j = 0
    while (j < t.length) {
      var z = Det.seedStr(spec.code, 0xbeefL, j.toLong)
      var r = 0
      while (r < 8) { z = Det.mix(z); r += 1 }  // simulated dictionary parse work
      t(j) = z
      j += 1
    }
    t
  }

  /** Per-layer elementwise rotation coefficients (cos/sin pairs). */
  val (layerA, layerB): (Array[Float], Array[Float]) =
    if (spec.effLayers == 0) (Array.empty[Float], Array.empty[Float])
    else {
      val a = new Array[Float](spec.effLayers * spec.dim)
      val b = new Array[Float](spec.effLayers * spec.dim)
      var i = 0
      while (i < a.length) {
        val theta = Det.uniform(Det.seedStr(spec.code, 0xfadeL, i.toLong)) * 2.0 * math.Pi
        a(i) = math.cos(theta).toFloat
        b(i) = math.sin(theta).toFloat
        i += 1
      }
      (a, b)
    }

  /** Simulated weight loading for dynamic models: work proportional to the
    * parameter count (plus a pooling head for SentenceBERT models). The
    * result is folded into the vocab table so the work is load-bearing.
    */
  val weightDigest: Long = {
    if (spec.layers == 0) 0L
    else {
      val paramsM = if (spec.paramsM > 0) spec.paramsM else 80 // S-DistilRoBERTa ~82M
      val extra   = if (spec.family == Family.Sbert) 15_000L else 0L
      val rounds  = 4_000_000L + paramsM * (30_000L + extra)
      var z = Det.strHash(spec.code)
      var r = 0L
      while (r < rounds) { z = Det.mix(z); r += 1 }
      z
    }
  }

  /** Token-level cache for dictionary-lookup models (Word2Vec / GloVe):
    * real static models are fast because vectorization IS a table lookup.
    * FastText and the dynamic models recompute per occurrence (n-gram
    * summation / transformer pass) — that is their cost signature.
    */
  val wordCache: ConcurrentHashMap[String, Array[Float]] =
    if (spec.isStatic && spec.tokenMode == TokenMode.Word) new ConcurrentHashMap[String, Array[Float]](1 << 14)
    else null
}

/** Vectorization: entity sentence → dense embedding (DESIGN.md §4). */
object Vectorizer {

  private val runtimes = new ConcurrentHashMap[String, ModelRuntime]()

  /** Cached runtime (initializes on first use). */
  def runtime(code: String): ModelRuntime =
    runtimes.computeIfAbsent(code, c => new ModelRuntime(ModelRegistry(c)))

  /** Seed for a token's base vector, routed through the vocab table. */
  private def tokenSeed(rt: ModelRuntime, surface: String): Long = {
    val h   = Det.strHash(surface)
    val idx = ((h >>> 1) % rt.vocabTable.length).toInt
    rt.vocabTable(idx) ^ h ^ rt.weightDigest
  }

  /** Surface the model actually embeds: canonical meaning if the model
    * "knows" this variant (per-model deterministic coin), else the raw
    * surface form.
    */
  private def knownSurface(rt: ModelRuntime, token: String): String = {
    val canon = Lexicon.canonical(token)
    if (canon.length == token.length) token
    else if (Det.uniform(Det.seed(Det.strHash(rt.spec.code), Det.strHash(token))) < rt.spec.knowP) canon
    else token
  }

  private def addWordVec(rt: ModelRuntime, token: String, acc: Array[Float]): Unit = {
    val cache = rt.wordCache
    var v = if (cache == null) null else cache.get(token)
    if (v == null) {
      v = Det.uniformVec(tokenSeed(rt, knownSurface(rt, token)), rt.spec.dim)
      if (cache != null && cache.size < (1 << 18)) cache.put(token, v)
    }
    var i = 0; while (i < acc.length) { acc(i) += v(i); i += 1 }
  }

  private def addNgramVec(rt: ModelRuntime, token: String, acc: Array[Float], weight: Float): Unit = {
    val grams = Tokenizer.charNgrams(token)
    val inv   = weight / grams.length
    var g = 0
    while (g < grams.length) {
      val v = Det.uniformVec(tokenSeed(rt, grams(g)), rt.spec.dim)
      var i = 0; while (i < acc.length) { acc(i) += v(i) * inv; i += 1 }
      g += 1
    }
  }

  /** One token's contribution, including the per-token transformer pass
    * for dynamic models (the cost scales with tokens × layers × dim, as a
    * real transformer's does).
    */
  private def tokenVec(rt: ModelRuntime, token: String): Array[Float] = {
    val spec = rt.spec
    val v = new Array[Float](spec.dim)
    spec.tokenMode match {
      case TokenMode.Word  => addWordVec(rt, token, v)
      case TokenMode.Ngram => addNgramVec(rt, token, v, 1.0f)
      case TokenMode.Mixed =>
        addWordVec(rt, token, v)
        var i = 0; while (i < v.length) { v(i) *= 0.7f; i += 1 }
        addNgramVec(rt, token, v, 0.3f)
    }
    if (spec.effLayers > 0) applyLayers(rt, v)
    v
  }

  /** Sub-passes per layer: lifts per-token transformer cost above the
    * static models' lookup cost (a real attention layer does far more than
    * dim multiply-adds), keeping Table 4's dynamic/static time ratio.
    */
  private val LayerRepeat = 4

  /** Fixed orthogonal per-layer transform: Givens rotations on dimension
    * pairs (i, i+d/2) followed by a cyclic index shift. An exact isometry,
    * so model depth contributes cost (layers × dim) without distorting the
    * similarity geometry — a deeper simulated model is slower, not worse.
    */
  private def applyLayers(rt: ModelRuntime, v: Array[Float]): Unit = {
    val d = v.length
    val half = d / 2
    val tmp = new Array[Float](d)
    var l = 0
    while (l < rt.spec.effLayers) {
      val off = l * d
      var r = 0
      while (r < LayerRepeat) {
        val shift = (l * 7 + 3 + r * 11) % d
        var i = 0
        while (i < half) {
          val x = v(i); val y = v(i + half)
          val c = rt.layerA(off + i); val s = rt.layerB(off + i)
          v(i) = x * c - y * s
          v(i + half) = x * s + y * c
          i += 1
        }
        i = 0
        while (i < d) {
          val j = { val s = i + shift; if (s >= d) s - d else s }
          tmp(i) = v(j)
          i += 1
        }
        System.arraycopy(tmp, 0, v, 0, d)
        r += 1
      }
      l += 1
    }
  }

  /** Embed one schema-agnostic sentence. `noiseSeed` identifies the entity
    * (dataset tag + source + id) so duplicate entities get independent
    * per-entity noise, as two GPU forward passes of distinct strings would.
    *
    * `sigmaScale` scales the in-signal noise: the supervised matcher passes
    * < 1 for dynamic models to model fine-tuning's adaptation of the
    * encoder itself (static embeddings stay frozen at 1.0) — the paper's
    * explanation for why static models fall behind when supervised.
    */
  def embed(code: String, sentence: String, noiseSeed: Long, sigmaScale: Double = 1.0): Array[Float] = {
    val rt   = runtime(code)
    val spec = rt.spec

    var tokens = Tokenizer.tokenize(sentence)
    if (spec.seqLen > 0 && tokens.length > spec.seqLen) tokens = tokens.take(spec.seqLen)

    val acc = new Array[Float](spec.dim)
    var t = 0
    while (t < tokens.length) {
      val tv = tokenVec(rt, tokens(t))
      var i = 0; while (i < acc.length) { acc(i) += tv(i); i += 1 }
      t += 1
    }
    if (tokens.nonEmpty) {
      val inv = 1.0f / tokens.length
      var i = 0; while (i < acc.length) { acc(i) *= inv; i += 1 }
    }

    // Signal projection + family noise structure.
    val sig = if (spec.family == Family.Bert) java.util.Arrays.copyOf(acc, spec.sigDim) else acc
    Det.normalize(sig)

    val sigma = spec.sigma * sigmaScale
    spec.family match {
      case Family.Static | Family.Sbert =>
        val n = Det.normalize(Det.uniformVec(noiseSeed, spec.dim))
        var i = 0; while (i < sig.length) { sig(i) += (sigma * n(i)).toFloat; i += 1 }
        Det.normalize(sig)
      case Family.Bert =>
        val out = new Array[Float](spec.dim)
        val inSig = Det.normalize(Det.uniformVec(Det.mix(noiseSeed), spec.sigDim))
        var i = 0
        while (i < spec.sigDim) { out(i) = sig(i) + (sigma * inSig(i)).toFloat; i += 1 }
        val n = Det.normalize(Det.uniformVec(noiseSeed, spec.sigDim))
        i = 0
        while (i < spec.sigDim) { out(spec.sigDim + i) = (spec.beta * n(i)).toFloat; i += 1 }
        Det.normalize(out)
    }
  }

  /** Noise seed of entity `id` in the source whose noise tag hashes to `tagHash`. */
  def noiseSeed(tagHash: Long, id: Long): Long = Det.seed(tagHash, id)

  /** Vectorize (entities, noise tag) sides in one fan-out: each side's
    * (id, vec) rows, in its order. A tag names one (dataset, source), so
    * per-entity noise is independent across sources.
    */
  def vectorize(modelCode: String, sides: Seq[(Array[EntityRow], String)]): Seq[Array[(Long, Array[Float])]] = {
    val rows = sides.flatMap { case (es, tag) => val h = Det.strHash(tag); es.map(e => (e.id, e.sentence, noiseSeed(h, e.id))) }
    val vecs = LocalSpark.fanOut(rows.toArray) { case (id, s, seed) => (id, embed(modelCode, s, seed)) }
    val ends = sides.scanLeft(0)(_ + _._1.length)
    ends.zip(ends.tail).map { case (a, b) => vecs.slice(a, b) }
  }

  /** Vectorize a (id, sentence) DataFrame → (id, vec) DataFrame, with the
    * noise seeds of the array form. Kept for erperf; ROADMAP item 1
    * deletes it.
    */
  def vectorize(df: DataFrame, modelCode: String, noiseTag: String): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val tagHash = Det.strHash(noiseTag)
    df.select("id", "sentence").as[(Long, String)]
      .map { case (id, s) => (id, Vectorizer.embed(modelCode, s, Vectorizer.noiseSeed(tagHash, id))) }
      .toDF("id", "vec")
  }
}
