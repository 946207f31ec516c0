package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame

/** The oracle itself: the bulk load and the per-DataFrame memo must not blunt
  * it. Wrong answers and mis-aliased columns still fail, NULL stays NULL, a
  * table name carries no rows between checks, and an input is collected once.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private val countSql = "SELECT v, count(*) AS n FROM t GROUP BY v"
  private lazy val input = Seq((1L, "a"), (2L, "b"), (3L, "a")).toDF("k", "v")

  private def failure(answer: DataFrame): String =
    intercept[IllegalArgumentException](Oracle.assertEquivalent(answer, countSql, "t" -> input)).getMessage

  test("a wrong engine answer fails with a result mismatch") {
    Oracle.assertEquivalent(Seq(("a", 2L), ("b", 1L)).toDF("v", "n"), countSql, "t" -> input)
    val msg = failure(Seq(("a", 2L), ("b", 2L)).toDF("v", "n"))
    assert(msg.contains("result mismatch"), msg)
  }

  test("a mis-aliased column fails with a column mismatch") {
    val msg = failure(Seq(("a", 2L), ("b", 1L)).toDF("v", "cnt"))
    assert(msg.contains("column mismatch"), msg)
  }

  test("a NULL input value reaches DuckDB as SQL NULL") {
    val withNull = Seq(Some("x"), None, Some("y")).toDF("c")
    Oracle.assertEquivalent(Seq((2L, 3L)).toDF("nonnull", "n"),
      "SELECT count(c) AS nonnull, count(*) AS n FROM t", "t" -> withNull)
  }

  test("successive checks load each DataFrame passed under one table name") {
    val sql = "SELECT count(*) AS n, max(x) AS m FROM t"
    Oracle.assertEquivalent(Seq((3L, "3")).toDF("n", "m"), sql, "t" -> Seq("1", "2", "3").toDF("x"))
    Oracle.assertEquivalent(Seq((2L, "20")).toDF("n", "m"), sql, "t" -> Seq("10", "20").toDF("x"))
  }

  /** Spark jobs started by `body`. Listener events arrive asynchronously but
    * in order, so once a marker job started after `body` has been seen, every
    * job of `body` has been seen too.
    */
  private def jobsDuring(body: => Unit): Int = {
    val marker = s"oracle-spec-marker-${System.nanoTime()}"
    val jobs = new AtomicInteger
    val markerSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.job.description") == marker)) markerSeen.countDown()
        else jobs.incrementAndGet()
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobDescription(marker)
      try spark.range(1).count() finally sc.setJobDescription(null)
      assert(markerSeen.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
      jobs.get
    } finally sc.removeSparkListener(listener)
  }

  test("repeated checks over one input DataFrame collect it once") {
    val groups = spark.range(0, 50).selectExpr("CAST(id % 5 AS STRING) AS g") // collecting it runs a job
    val answer = (0 until 5).map(i => (i.toString, 10L)).toDF("g", "n") // a local relation: no job
    val check = () => Oracle.assertEquivalent(answer, "SELECT g, count(*) AS n FROM t GROUP BY g", "t" -> groups)
    val first = jobsDuring(check())
    val again = jobsDuring { check(); check() }
    assert(first >= 1 && again == 0, s"jobs: first check $first, next two $again")
  }
}
