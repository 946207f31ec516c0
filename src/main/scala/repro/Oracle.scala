package repro

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.{DataFrame, Row}
import org.duckdb.DuckDBConnection
import scala.util.Using

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Each check opens a fresh in-memory DuckDB, creates every input table
  * with all-``VARCHAR`` columns and bulk-loads it with DuckDB's appender
  * (``toString`` of each value, SQL NULL for null). An input DataFrame is
  * collected once per JVM: its rows are memoized by reference (``Dataset``
  * does not override ``equals``), so later checks over the same DataFrame
  * skip the Spark job. Callers must therefore pass DataFrames over
  * immutable inputs; the engine answer ``sparkDf`` is collected on every call.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  Class.forName("org.duckdb.DuckDBDriver")

  /** Each input DataFrame's rows as loaded into DuckDB, keyed by reference. */
  private val inputRows = new java.util.WeakHashMap[DataFrame, Array[Array[String]]]()

  private def rowsOf(df: DataFrame): Array[Array[String]] = inputRows.synchronized {
    inputRows.computeIfAbsent(df, _ =>
      df.collect().map(r => Array.tabulate(r.length)(i => Option(r.get(i)).map(_.toString).orNull)))
  }

  private def load(conn: Connection, name: String, df: DataFrame): Unit = {
    val cols = df.columns
    Using.resource(conn.createStatement())(
      _.execute(s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"))
    Using.resource(conn.unwrap(classOf[DuckDBConnection]).createAppender("main", name)) { app =>
      rowsOf(df).foreach { r =>
        app.beginRow()
        r.foreach(v => app.append(v))
        app.endRow()
      }
    }
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit =
    Using.resource(DriverManager.getConnection("jdbc:duckdb:")) { conn =>
      for ((name, df) <- tables) load(conn, name, df)
      val (dCols, dRows) = Using.Manager { use =>
        val rs   = use(use(conn.createStatement()).executeQuery(sql))
        val meta = rs.getMetaData
        val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        val rows = Iterator
          .continually(rs)
          .takeWhile(_.next())
          .map(r => Row.fromSeq((1 to cols.size).map(r.getObject)))
          .toVector
        (cols, rows)
      }.get
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    }
}
