package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.Det

/** One generated entity: source-local id, schema attributes, and the
  * schema-agnostic "sentence" (concatenation of all attribute values).
  */
final case class EntityRow(id: Long, attrs: Seq[String], sentence: String)

/** Clean-Clean ER dataset generator (substitute for the ten real datasets
  * of Table 2(a); see DESIGN.md §1).
  *
  * A *record* is a deterministic array of token meanings per attribute.
  * Matched entity pairs are two renderings of the same record: source 1
  * renders with light noise, source 2 with the profile's full noise
  * (typos, surface variants, dropped tokens, missing and misplaced
  * values). Unmatched entities are renderings of unique records.
  * Everything is a pure function of (profile, id), so both sources, the
  * ground truth, and the DuckDB oracle all see identical data.
  */
object ERSynth {

  private val ExtraBase = 10_000_000L

  /** Zipf-ish meaning draw: density ∝ x^(1/a − 1), a=2 (head-heavy). */
  private def drawMeaning(vocab: Int, s: Long): Long = {
    val u = Det.uniform(s)
    math.min(vocab - 1L, math.floor(vocab * u * u).toLong)
  }

  /** Apply one character-level edit, deterministically. */
  private[data] def typo(word: String, s: Long): String = {
    if (word.isEmpty) return word
    val pos = Det.nextInt(Det.seed(s, 1L), word.length)
    Det.nextInt(Det.seed(s, 2L), 4) match {
      case 0 if word.length >= 2 => // swap adjacent
        val p = math.min(pos, word.length - 2)
        word.substring(0, p) + word.charAt(p + 1) + word.charAt(p) + word.substring(p + 2)
      case 1 if word.length >= 2 => // delete
        word.substring(0, pos) + word.substring(pos + 1)
      case 2 => // replace
        val c = ('a' + Det.nextInt(Det.seed(s, 3L), 26)).toChar
        word.substring(0, pos) + c + word.substring(pos + 1)
      case _ => // insert
        val c = ('a' + Det.nextInt(Det.seed(s, 4L), 26)).toChar
        word.substring(0, pos) + c + word.substring(pos)
    }
  }

  /** Token count for attribute `a` of a record (fixed per record+attr so
    * both renderings agree on the core content).
    */
  private def tokenCount(p: CleanProfile, recId: Long, a: Int): Int = {
    if (a == 0) p.titleTokens
    else {
      val mean = p.otherTokens
      val base = mean.toInt
      val frac = mean - base
      base + (if (Det.uniform(Det.seedStr(p.name, 0x77L, recId, a.toLong)) < frac) 1 else 0)
    }
  }

  /** Core meanings of record `recId`, attribute `a` (shared across sides). */
  private def coreMeanings(p: CleanProfile, recId: Long, a: Int): Array[Long] = {
    val n = tokenCount(p, recId, a)
    Array.tabulate(n)(t => drawMeaning(p.vocab, Det.seedStr(p.name, 0x11L, recId, a.toLong, t.toLong)))
  }

  /** Render one attribute value from meanings with the side's noise level. */
  private def renderAttr(p: CleanProfile, recId: Long, side: Int, a: Int,
                         meanings: Array[Long], noiseFactor: Double): String = {
    val sb = new StringBuilder
    var t = 0
    while (t < meanings.length) {
      val s = Det.seedStr(p.name, 0x22L, recId, side.toLong, a.toLong, t.toLong)
      if (Det.uniform(Det.seed(s, 1L)) >= p.dropRate * noiseFactor) {
        val variant =
          if (Det.uniform(Det.seed(s, 2L)) < p.variantRate * noiseFactor)
            1 + Det.nextInt(Det.seed(s, 3L), Lexicon.Variants)
          else 0
        var w = Lexicon.surface(p.name, meanings(t), variant)
        if (Det.uniform(Det.seed(s, 4L)) < p.typoRate * noiseFactor)
          w = typo(w, Det.seed(s, 5L))
        if (sb.nonEmpty) sb += ' '
        sb ++= w
      }
      t += 1
    }
    sb.result()
  }

  /** Render a full entity: `side` ∈ {1, 2}; `idx` is the source-local id. */
  def renderEntity(p: CleanProfile, side: Int, idx: Long): EntityRow = {
    val matched = idx < p.dups
    val recId   = if (matched) idx else ExtraBase * side + idx
    renderRecord(p, side, idx, recId)
  }

  /** Render an explicit record id as an entity of `side` (used by the
    * supervised pair generator to render the same record on both sides).
    */
  def renderRecord(p: CleanProfile, side: Int, idx: Long, recId: Long): EntityRow = {
    // Source 1 renders records lightly noised; source 2 carries the full noise.
    val noiseFactor = if (side == 1) 0.25 else 1.0
    val nAttrs = if (side == 1) p.a1 else p.a2
    val shared = math.min(p.a1, p.a2)

    val attrs = new Array[String](nAttrs)
    var a = 0
    while (a < nAttrs) {
      val s = Det.seedStr(p.name, 0x33L, recId, side.toLong, a.toLong)
      if (Det.uniform(s) < p.missRate) attrs(a) = ""
      else {
        val meanings =
          if (a < shared) coreMeanings(p, recId, a)
          else { // source-specific extra attributes (e.g. TMDb's 30 vs IMDb's 13)
            val n = tokenCount(p, recId, a % shared)
            Array.tabulate(n)(t =>
              drawMeaning(p.vocab, Det.seedStr(p.name, 0x44L, recId, side.toLong, a.toLong, t.toLong)))
          }
        attrs(a) = renderAttr(p, recId, side, a, meanings, noiseFactor)
      }
      a += 1
    }
    // Misplaced values: rotate attribute values by one (schema-agnostic
    // sentence unchanged; schema-based consumers see wrong columns).
    val placed =
      if (Det.uniform(Det.seedStr(p.name, 0x55L, recId, side.toLong)) < p.misplaceRate)
        Array.tabulate(nAttrs)(i => attrs((i + nAttrs - 1) % nAttrs))
      else attrs

    EntityRow(idx, placed.toSeq, placed.filter(_.nonEmpty).mkString(" "))
  }

  /** One source, rendered on the driver in id order. */
  def entities(p: CleanProfile, side: Int): Array[EntityRow] = {
    require(side == 1 || side == 2, s"side must be 1 or 2, got $side")
    Array.tabulate(if (side == 1) p.v1 else p.v2)(i => renderEntity(p, side, i))
  }

  /** DataFrame (id, attrs, sentence) of one source. Kept for erperf;
    * ROADMAP item 1 deletes it.
    */
  def source(spark: SparkSession, p: CleanProfile, side: Int): DataFrame = {
    import spark.implicits._
    require(side == 1 || side == 2, s"side must be 1 or 2, got $side")
    val n = if (side == 1) p.v1 else p.v2
    spark.range(n).as[Long].map(i => renderEntity(p, side, i)).toDF()
  }

  /** Ground-truth matches (id1, id2): cluster i occupies id i in each side.
    * Kept for erperf; ROADMAP item 1 deletes it.
    */
  def groundTruth(spark: SparkSession, p: CleanProfile): DataFrame = {
    import spark.implicits._
    spark.range(p.dups).as[Long].map(i => (i, i)).toDF("id1", "id2")
  }

  /** Table 2(a) row: (|V1|, |V2|, |A1|, |A2|, |D|, avg sentence chars). */
  def stats(p: CleanProfile): (Long, Long, Int, Int, Long, Double) = {
    val totalLen = Seq(1, 2).map(entities(p, _).map(_.sentence.length.toLong).sum).sum
    (p.v1.toLong, p.v2.toLong, p.a1, p.a2, p.dups.toLong, totalLen.toDouble / (p.v1 + p.v2))
  }
}
