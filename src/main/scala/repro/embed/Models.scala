package repro.embed

/** Model family: static word embeddings, BERT-style encoders, or
  * SentenceBERT models (DESIGN.md §4).
  */
sealed abstract class Family
object Family {
  case object Static extends Family
  case object Bert extends Family
  case object Sbert extends Family
}

/** How a model turns a token into a vector: word lookup, a sum of
  * character n-grams, or both (the dynamic models' subwords).
  */
sealed abstract class TokenMode
object TokenMode {
  case object Word extends TokenMode
  case object Ngram extends TokenMode
  case object Mixed extends TokenMode
}

/** Static description of a simulated language model.
  *
  * The metadata columns (dim, seqLen, paramsM, refs) reproduce Table 1 of
  * the paper. The behavioural knobs encode the mechanisms the paper uses
  * to explain its results (see DESIGN.md §4):
  *
  *  - `tokenMode`  — word-level lookup, char-n-gram sum, or mixed (SBERT);
  *  - `knowP`      — probability of canonicalizing a surface variant to its
  *                   meaning ("corpus knowledge"; S-GTR-T5 highest);
  *  - `sigma`      — in-signal per-entity noise (irreducible by fine-tuning);
  *  - `beta`       — separable-subspace noise (BERT family only): dominates
  *                   Euclidean distance but a supervised per-dimension
  *                   classifier can null it, i.e. "fine-tuning works";
  *  - `layers` / `costFactor` / `vocabInit` — the cost model (real work).
  */
final case class ModelSpec(
    code: String,
    name: String,
    family: Family,
    dim: Int,
    seqLen: Int,             // 0 = unlimited (Table 1 "-")
    paramsM: Int,            // 0 = unknown (Table 1 "-")
    tokenMode: TokenMode,
    knowP: Double,
    sigma: Double,
    beta: Double,
    layers: Int,
    costFactor: Double,
    vocabInit: Int,
    blockingRefs: String,
    matchingRefs: String,
) {
  /** Dimensionality of the signal subspace (BERT: first half only). */
  def sigDim: Int = if (family == Family.Bert) dim / 2 else dim

  def isStatic: Boolean = family == Family.Static

  /** Transformer passes per token, 0 for static models: costFactor folds
    * ALBERT weight sharing and RoBERTa kernels into the layer count.
    */
  val effLayers: Int = if (isStatic) 0 else math.max(1, math.round(layers * costFactor).toInt)
}

/** The 12 models of the paper's Table 1, in its row order. */
object ModelRegistry {
  import Family._, TokenMode._

  val WC = ModelSpec("WC", "Word2Vec", Static, 300, 0, 0, Word,
    knowP = 0.50, sigma = 0.58, beta = 0.0, layers = 0, costFactor = 1.0,
    vocabInit = 400_000, blockingRefs = "[55]", matchingRefs = "[33]")

  val FT = ModelSpec("FT", "FastText", Static, 300, 0, 0, Ngram,
    knowP = 0.15, sigma = 0.44, beta = 0.0, layers = 0, costFactor = 1.0,
    vocabInit = 2_000_000, blockingRefs = "[55, 65]", matchingRefs = "[14, 23, 33, 35, 60, 63, 64]")

  val GE = ModelSpec("GE", "GloVe", Static, 300, 0, 0, Word,
    knowP = 0.60, sigma = 0.42, beta = 0.0, layers = 0, costFactor = 1.0,
    vocabInit = 70_000, blockingRefs = "[13, 55]", matchingRefs = "[13, 33]")

  val BT = ModelSpec("BT", "BERT", Bert, 768, 100, 110, Mixed,
    knowP = 0.70, sigma = 0.15, beta = 1.50, layers = 12, costFactor = 1.0,
    vocabInit = 30_000, blockingRefs = "-", matchingRefs = "[3, 5, 25, 38, 45]")

  val AT = ModelSpec("AT", "AlBERT", Bert, 768, 100, 12, Mixed,
    knowP = 0.70, sigma = 0.15, beta = 3.00, layers = 12, costFactor = 0.89,
    vocabInit = 30_000, blockingRefs = "-", matchingRefs = "[38]")

  val RA = ModelSpec("RA", "RoBERTa", Bert, 768, 100, 125, Mixed,
    knowP = 0.72, sigma = 0.13, beta = 1.45, layers = 12, costFactor = 0.87,
    vocabInit = 50_000, blockingRefs = "-", matchingRefs = "[3, 5, 25, 38]")

  val DT = ModelSpec("DT", "DistilBERT", Bert, 768, 100, 66, Mixed,
    knowP = 0.70, sigma = 0.15, beta = 1.10, layers = 6, costFactor = 1.0,
    vocabInit = 30_000, blockingRefs = "-", matchingRefs = "[3, 5, 25, 38]")

  val XT = ModelSpec("XT", "XLNet", Bert, 768, 100, 110, Mixed,
    knowP = 0.70, sigma = 0.15, beta = 3.50, layers = 16, costFactor = 1.05,
    vocabInit = 32_000, blockingRefs = "-", matchingRefs = "[3, 5, 25, 38]")

  val ST = ModelSpec("ST", "S-MPNet", Sbert, 768, 384, 110, Mixed,
    knowP = 0.85, sigma = 0.18, beta = 0.0, layers = 12, costFactor = 0.92,
    vocabInit = 30_000, blockingRefs = "-", matchingRefs = "-")

  val S5 = ModelSpec("S5", "S-GTR-T5", Sbert, 768, 512, 110, Mixed,
    knowP = 0.95, sigma = 0.10, beta = 0.0, layers = 24, costFactor = 1.0,
    vocabInit = 32_000, blockingRefs = "-", matchingRefs = "-")

  val SA = ModelSpec("SA", "S-DistilRoBERTa", Sbert, 768, 512, 0, Mixed,
    knowP = 0.82, sigma = 0.20, beta = 0.0, layers = 7, costFactor = 0.90,
    vocabInit = 50_000, blockingRefs = "-", matchingRefs = "-")

  val SM = ModelSpec("SM", "S-MiniLM", Sbert, 384, 256, 22, Mixed,
    knowP = 0.80, sigma = 0.22, beta = 0.0, layers = 6, costFactor = 1.0,
    vocabInit = 30_000, blockingRefs = "-", matchingRefs = "-")

  /** Table 1 row order. */
  val all: Seq[ModelSpec] = Seq(WC, FT, GE, BT, AT, RA, DT, XT, ST, S5, SA, SM)

  val byCode: Map[String, ModelSpec] = all.map(m => m.code -> m).toMap

  def apply(code: String): ModelSpec =
    byCode.getOrElse(code, throw new NoSuchElementException(s"unknown model code $code"))

  val staticModels: Seq[ModelSpec] = all.filter(_.family == Static)
  val bertModels: Seq[ModelSpec]   = all.filter(_.family == Bert)
  val sbertModels: Seq[ModelSpec]  = all.filter(_.family == Sbert)

  /** Models used in the supervised-matching task (paper §4.3 excludes
    * Word2Vec — unsupported by DeepMatcher — and S-GTR-T5 — unsupported
    * by EMTransformer). Table 6 row order.
    */
  val supervisedModels: Seq[ModelSpec] = Seq(FT, GE, BT, AT, RA, DT, XT, ST, SA, SM)
}
