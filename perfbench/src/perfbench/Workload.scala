package perfbench

import org.apache.spark.sql.SparkSession
import repro.engine.Data.Row
import repro.experiments.Experiments
import repro.queries.{Queries, Tpch}

/** Inputs and references a workload's set-up produced. */
final case class SetupStats(dataSeconds: Double, dataRows: Long)

trait Workload {
  /** Loads the inputs and computes the untuned references. The benchmark
    * calls it several times to take a median and keeps the last result.
    */
  def setup(spark: SparkSession): SetupStats

  /** Answer checks made once after set-up, outside the timed passes. */
  def validations(spark: SparkSession): Vector[Op] = Vector.empty

  /** The ops of one pass, in the order the seed gives them. */
  def ops: Vector[Op]

  /** Lines for the report, e.g. a digest of generated schedules. */
  def notes: Vector[String] = Vector.empty
}

object Workload {
  def rowsOf(t: Tpch): Long =
    Seq(t.lineitem, t.orders, t.customer, t.part).map(_.rowCount).sum

  def loadTpch(spark: SparkSession, sf: Double): Tpch =
    Trace.span("data.load")(Queries.loadTpch(spark, sf, Experiments.DataNodes))

  /** Engine answers against Spark SQL over the same DataFrames. */
  def sparkSqlCheck(spark: SparkSession, id: String, t: Tpch, sql: String, want: => Vector[Row]): Op =
    Op(s"sparksql.$id", s"Spark SQL: $sql", () => Vector.empty, _ => {
      t.dfs.foreach { case (name, df) => df.createOrReplaceTempView(name) }
      val got = spark.sql(sql).collect().toVector.map(SparkRows.toEngine)
      Answers.expectSame(s"$id vs Spark SQL", got, want)
    })
}

/** Spark rows in the engine's value domain (see `repro.sparkbridge.SparkTables`). */
object SparkRows {
  def toEngine(r: org.apache.spark.sql.Row): Row = Array.tabulate[Any](r.length) { i =>
    r.get(i) match {
      case d: java.sql.Date => d.toString
      case d: java.time.LocalDate => d.toString
      case b: java.math.BigDecimal => b.doubleValue
      case i: java.lang.Integer => i.longValue
      case f: java.lang.Float => f.doubleValue
      case v => v
    }
  }
}

