package repro.perf

import repro.data.{DatasetProfiles, ERSynth}

/** Tests of the benchmark's own code; no Spark session is needed.
  * Run with `python3 erperf/run.py --self-test`; exits non-zero on a failure.
  */
object SelfTest {

  private var failures = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    val pass = try ok catch { case e: Throwable => println(s"  threw $e"); false }
    println(s"${if (pass) "ok  " else "FAIL"} $name")
    if (!pass) failures += 1
  }

  def main(args: Array[String]): Unit = {
    // Oracle against a hand-computed case: from (0,0) the index rows lie at
    // distances 0, 5, 1, 2 and 1 (ids 1..5).
    val q = Array(0f, 0f)
    val index = Array(1L -> Array(0f, 0f), 2L -> Array(3f, 4f), 3L -> Array(1f, 0f),
                      4L -> Array(0f, 2f), 5L -> Array(0f, -1f))
    check("oracle distance is Euclidean")(KnnOracle.dist(Array(3f, 4f), q) == 5.0)
    check("oracle top-3 by (dist, id)") {
      KnnOracle.topK(q, index, 3).sameElements(Array(1L -> 0.0, 3L -> 1.0, 5L -> 1.0))
    }
    check("oracle accepts the exact top-3")(KnnOracle.compare(q, index, 3, Seq(1L -> 0.0, 3L -> 1.0, 5L -> 1.0)).isEmpty)
    check("oracle accepts either side of a tie at the k-th distance") {
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0, 5L -> 1.0)).isEmpty &&
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0, 3L -> 1.0)).isEmpty
    }
    check("oracle rejects a neighbour beyond the k-th distance") {
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0, 4L -> 2.0)).nonEmpty
    }
    check("oracle rejects a missing nearer neighbour") {
      KnnOracle.compare(q, index, 3, Seq(3L -> 1.0, 5L -> 1.0, 4L -> 2.0)).nonEmpty
    }
    check("oracle rejects a wrong distance, a repeat, a short list and an unknown id") {
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0, 3L -> 1.5)).nonEmpty &&
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0, 1L -> 0.0)).nonEmpty &&
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0)).nonEmpty &&
      KnnOracle.compare(q, index, 2, Seq(1L -> 0.0, 9L -> 1.0)).nonEmpty
    }

    // Seed → profile name: same seed, same sentences; other seed, other ones.
    val p = DatasetProfiles.D3.scaled(0.3)
    def sentences(seed: Long) =
      (0L until 20L).map(i => ERSynth.renderEntity(Workloads.seeded(p, seed), 2, i).sentence)
    check("seed is a profile-name suffix")(Workloads.seeded(p, 7).name == "D3-s7")
    check("seeding keeps the profile's sizes")(Workloads.seeded(p, 7).copy(name = p.name) == p)
    check("same seed gives the same sentences")(sentences(7) == sentences(7))
    check("different seeds give different sentences")(sentences(7).zip(sentences(8)).forall { case (a, b) => a != b })

    // Every metric name the passes can emit.
    val names = Main.perLayer(Tracer.Summary(Map.empty, Map.empty, Map.empty), 1.0, 4, 1.0).keys.toSeq ++
      Seq("wall_s", "cpu_s", "peak_rss_mb", "recall_at10", "f1", "setup_s", "trace.overhead_s")
    check("every metric name matches [A-Za-z0-9_.-]+") {
      names.forall(_.matches("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"))
    }
    check("recall counts ground-truth pairs among candidates") {
      Workloads.recall(Seq(1L -> 1L, 2L -> 3L), Set(1L -> 1L, 2L -> 2L)) == 0.5
    }

    if (failures > 0) { println(s"$failures self-test(s) failed"); sys.exit(1) }
  }
}
