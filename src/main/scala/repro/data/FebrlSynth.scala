package repro.data

import repro.util.Det

/** Febrl-style Dirty-ER generator (Table 2(b) substitute; DESIGN.md §1).
  *
  * Reproduces Febrl's recipe: clean person records built from name /
  * address frequency pools; duplicates generated with realistic
  * character-level errors (≤3 modifications per attribute value, ≤10 per
  * record); 40% of all entities match at least one other entity; at most
  * 9 duplicates per record.
  *
  * Cluster layout is a repeating block of 50 ids: 30 singletons plus
  * clusters of sizes {2, 2, 3, 5, 8} → 43 duplicate pairs per block
  * (0.86 pairs/entity; the paper's D_10K has 0.87).
  */
object FebrlSynth {

  val Block = 50
  /** (start offset, size) of each non-singleton cluster within a block. */
  val Clusters: Seq[(Int, Int)] = Seq((30, 2), (32, 2), (34, 3), (37, 5), (42, 8))
  val PairsPerBlock: Int = Clusters.map { case (_, s) => s * (s - 1) / 2 }.sum // 43

  /** Cluster key and copy index for an entity id. Singletons get a unique
    * key (bit 60 set); clustered ids share (block, clusterIdx).
    */
  def clusterOf(id: Long): (Long, Int) = {
    val blk = id / Block
    val pos = (id % Block).toInt
    if (pos < 30) ((1L << 60) | id, 0)
    else {
      val ci = Clusters.indexWhere { case (st, sz) => pos >= st && pos < st + sz }
      val (st, _) = Clusters(ci)
      ((blk << 8) | ci.toLong, pos - st)
    }
  }

  /** Clean base record of a cluster, the 12 Febrl attributes: given name,
    * surname, street number, address 1 and 2, suburb, postcode, state,
    * date of birth, age, phone number and social security id.
    */
  def baseRecord(key: Long): Array[String] = {
    def s(i: Int) = Det.seed(key, 0xfebaL, i.toLong)
    def digits(n: Int, seedIdx: Int): String =
      (0 until n).map(j => ('0' + Det.nextInt(Det.seed(s(seedIdx), j.toLong), 10)).toChar).mkString
    Array(
      Lexicon.poolWord("febrl-given", 200, s(0)),
      Lexicon.poolWord("febrl-surname", 300, s(1)),
      (1 + Det.nextInt(s(2), 999)).toString,
      Lexicon.poolWord("febrl-street", 250, s(3)) + " " + Lexicon.poolWord("febrl-sttype", 12, s(4)),
      Lexicon.poolWord("febrl-addr2", 80, s(5)),
      Lexicon.poolWord("febrl-suburb", 150, s(6)),
      digits(4, 7),
      Lexicon.poolWord("febrl-state", 8, s(8)),
      f"19${Det.nextInt(s(9), 80)}%02d${1 + Det.nextInt(s(10), 12)}%02d${1 + Det.nextInt(s(11), 28)}%02d",
      (18 + Det.nextInt(s(12), 70)).toString,
      "07 " + digits(8, 13),
      digits(7, 14),
    )
  }

  /** Febrl-style duplicate corruption: per attribute up to 3 character
    * edits, per record up to 10; each edit drawn deterministically.
    */
  def corrupt(rec: Array[String], key: Long, copy: Int): Array[String] = {
    if (copy == 0) return rec
    val out = rec.clone()
    var budget = 10
    var a = 0
    while (a < out.length && budget > 0) {
      val s0 = Det.seed(key, 0xc0ffeeL, copy.toLong, a.toLong)
      // geometric-ish: P(≥1 mod)=0.55, each further mod 0.4
      var mods = 0
      if (Det.uniform(Det.seed(s0, 1L)) < 0.55) {
        mods = 1
        if (Det.uniform(Det.seed(s0, 2L)) < 0.4) mods = 2
        if (mods == 2 && Det.uniform(Det.seed(s0, 3L)) < 0.4) mods = 3
      }
      mods = math.min(mods, budget)
      var m = 0
      while (m < mods) {
        out(a) = ERSynth.typo(out(a), Det.seed(s0, 10L + m))
        m += 1
      }
      budget -= mods
      a += 1
    }
    out
  }

  /** Entity `id` of the dataset salted by `tag`, pure in (tag, id): a
    * dataset of n entities is the first n ids, so one render of a prefix
    * serves every size.
    */
  def renderEntity(tag: String, id: Long): EntityRow = {
    val (key, copy) = clusterOf(id) // layout is positional; tag only salts content
    val taggedKey = Det.seedStr(tag, key)
    val attrs = corrupt(baseRecord(taggedKey), taggedKey, copy)
    EntityRow(id, attrs.toSeq, attrs.filter(_.nonEmpty).mkString(" "))
  }

  /** Ground-truth duplicate pairs (id1 < id2) among the first `n` ids. */
  def duplicatePairs(n: Long): Iterator[(Long, Long)] =
    Iterator.range(0L, n).flatMap { id =>
      val (key, _) = clusterOf(id)
      if (key >= (1L << 60)) Iterator.empty[(Long, Long)]
      else {
        // pair this id with every later id in the same cluster (bounded ≤ 8)
        val blk = id / Block
        val (st, sz) = Clusters((key & 0xff).toInt)
        val last = math.min(blk * Block + st + sz - 1, n - 1)
        Iterator.range(id + 1, last + 1).map(other => (id, other))
      }
    }

  /** Sizes of Table 2(b): D_10K … D_2M. */
  val TableSizes: Seq[(String, Long)] = Seq(
    "Ds1" -> 10_000L, "Ds2" -> 50_000L, "Ds3" -> 100_000L, "Ds4" -> 200_000L,
    "Ds5" -> 300_000L, "Ds6" -> 1_000_000L, "Ds7" -> 2_000_000L)
}
