package repro.data

import repro.util.Det

/** Profile of one supervised-matching dataset (Table 3). */
final case class DsmProfile(
    name: String,
    src1: String, src2: String,
    totalPairs: Int,
    dups: Int,
    attrs: Int,
    titleTokens: Int,
    otherTokens: Double,
    typoRate: Double,
    variantRate: Double,
    dropRate: Double,
    missRate: Double,
    misplaceRate: Double,
    vocab: Int,
) {
  def trainN: Int = (totalPairs * 0.6).toInt
  def validN: Int = (totalPairs * 0.2).toInt
  def testN: Int  = totalPairs - trainN - validN
}

/** One labelled candidate pair. */
final case class PairRow(pairId: Long, sent1: String, sent2: String, label: Int)

/** A DSM's pairs, split 60/20/20; each split keeps the shuffle order. */
final case class Pairs(profile: DsmProfile, train: Array[PairRow], valid: Array[PairRow], test: Array[PairRow]) {
  def all: Array[PairRow] = train ++ valid ++ test
}

/** Supervised-matching datasets DSM1–DSM5 (Table 3 substitute).
  *
  * Positive pairs are two renderings of the same record (as in
  * [[ERSynth]]); negatives are distinct records, half of them "siblings"
  * sharing the leading title token (hard negatives). 60/20/20
  * train/valid/test split by a deterministic shuffle, following the
  * paper's validation-set fix of EMTransformer.
  */
object SupervisedSynth {

  val DSM1 = DsmProfile("DSM1", "Abt", "Buy", 9575, 1028, 3,
    titleTokens = 5, otherTokens = 8.0, typoRate = 0.08, variantRate = 0.12,
    dropRate = 0.05, missRate = 0.03, misplaceRate = 0.0, vocab = 5000)

  val DSM2 = DsmProfile("DSM2", "iTunes", "Amazon", 539, 132, 8,
    titleTokens = 3, otherTokens = 1.2, typoRate = 0.10, variantRate = 0.15,
    dropRate = 0.06, missRate = 0.08, misplaceRate = 0.05, vocab = 1500)

  val DSM3 = DsmProfile("DSM3", "DBLP", "ACM", 12363, 2220, 4,
    titleTokens = 9, otherTokens = 3.5, typoRate = 0.01, variantRate = 0.03,
    dropRate = 0.02, missRate = 0.02, misplaceRate = 0.05, vocab = 8000)

  val DSM4 = DsmProfile("DSM4", "DBLP", "Scholar", 28707, 5347, 4,
    titleTokens = 9, otherTokens = 3.0, typoRate = 0.04, variantRate = 0.08,
    dropRate = 0.06, missRate = 0.06, misplaceRate = 0.05, vocab = 12000)

  val DSM5 = DsmProfile("DSM5", "Walmart", "Amazon", 10242, 962, 5,
    titleTokens = 6, otherTokens = 2.2, typoRate = 0.10, variantRate = 0.15,
    dropRate = 0.06, missRate = 0.08, misplaceRate = 0.05, vocab = 9000)

  val all: Seq[DsmProfile] = Seq(DSM1, DSM2, DSM3, DSM4, DSM5)

  /** The ERSynth profile used to render this DSM's records. */
  private def asClean(p: DsmProfile): CleanProfile = CleanProfile(
    p.name, p.src1, p.src2, v1 = 2, v2 = 2, a1 = p.attrs, a2 = p.attrs, dups = 2,
    titleTokens = p.titleTokens, otherTokens = p.otherTokens, typoRate = p.typoRate,
    variantRate = p.variantRate, dropRate = p.dropRate, missRate = p.missRate,
    misplaceRate = p.misplaceRate, vocab = p.vocab)

  /** Replace ~1 in 6 tokens with fresh vocabulary words — turns a
    * rendering of record r into a *different* real-world entity that is
    * nearly identical textually (a sibling product differing in its model
    * number). These hard negatives give supervised matching its paper-like
    * difficulty spread.
    */
  private def mutateTokens(p: DsmProfile, sentence: String, i: Long): String = {
    val toks = sentence.split(" ").filter(_.nonEmpty)
    if (toks.isEmpty) return Lexicon.surface(p.name, Det.nextInt(Det.seedStr(p.name, 0x7fL, i), p.vocab).toLong, 0)
    val nMut = math.max(1, toks.length / 3)
    val out = toks.clone()
    var m = 0
    while (m < nMut) {
      val pos = Det.nextInt(Det.seedStr(p.name, 0x81L, i, m.toLong), toks.length)
      val mean = Det.nextInt(Det.seedStr(p.name, 0x82L, i, m.toLong), p.vocab).toLong
      out(pos) = Lexicon.surface(p.name, mean, 0)
      m += 1
    }
    out.mkString(" ")
  }

  /** Build one labelled pair. Positives: i < dups. */
  def renderPair(p: DsmProfile, i: Long): (String, String, Int) = {
    val cp = asClean(p)
    if (i < p.dups) {
      // same record rendered by each side ⇒ a matching pair
      (ERSynth.renderRecord(cp, 1, i, i).sentence,
       ERSynth.renderRecord(cp, 2, i, i).sentence, 1)
    } else {
      val recId = 100_000L + i
      val s1 = ERSynth.renderRecord(cp, 1, i, recId).sentence
      val s2raw = ERSynth.renderRecord(cp, 2, i, recId).sentence
      if (Det.uniform(Det.seedStr(p.name, 0x99L, i)) < 0.7)
        // hard negative: the same record's side-2 rendering with key tokens swapped
        (s1, mutateTokens(p, s2raw, i), 0)
      else
        // easy negative: an unrelated record
        (s1, ERSynth.renderRecord(cp, 2, i, 200_000L + i).sentence, 0)
    }
  }

  /** All pairs, rendered on the driver, shuffled and cut by rank into the splits. */
  def pairs(p: DsmProfile): Pairs = {
    val rows = (0L until p.totalPairs.toLong)
      .sortBy(i => Det.uniform(Det.seedStr(p.name, 0xabcL, i)))
      .map { i => val (s1, s2, label) = renderPair(p, i); PairRow(i, s1, s2, label) }
      .toArray
    val (train, rest) = rows.splitAt(p.trainN)
    val (valid, test) = rest.splitAt(p.validN)
    Pairs(p, train, valid, test)
  }
}
