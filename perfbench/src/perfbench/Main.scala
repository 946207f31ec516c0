package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** Command line of one benchmark run (see perfbench/README.md). */
final case class Config(workload: String = "", seed: Long = 0, seconds: Double = 10, trace: Boolean = false,
                        tiny: Boolean = false, master: Option[String] = None, outDir: String = ".bench_build")

object Config {
  def parse(args: List[String], c: Config = Config()): Config = args match {
    case Nil => c
    case "--workload" :: v :: rest => parse(rest, c.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, c.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, c.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, c.copy(trace = v == "1"))
    case "--size" :: v :: rest => parse(rest, c.copy(tiny = v == "tiny"))
    case "--master" :: v :: rest => parse(rest, c.copy(master = Some(v)))
    case "--out-dir" :: v :: rest => parse(rest, c.copy(outDir = v))
    case other => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }
}

/** Outcome of one op execution in a timed pass. */
final case class OpResult(op: Op, seconds: Double, records: Vector[RunRecord], failure: Option[(String, String)])

final case class PassResult(index: Int, traced: Boolean, results: Vector[OpResult], tally: Map[String, Double]) {
  def seconds: Double = results.map(_.seconds).sum
}

object Main {
  /** Fixed so that `spark.range` splits, and with it every generated row and
    * every virtual number, are the same on every host.
    */
  val DefaultParallelism = 8

  /** Set-ups per run; `setup_s` reports their median. */
  val SetupReps = 3

  private def now(): Long = System.nanoTime()
  private def secs(t0: Long): Double = (now() - t0) / 1e9
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it; the maximum
    * when there are fewer than twenty samples.
    */
  def tail(xs: Seq[Double]): (String, Double) = {
    val s = xs.sorted; val n = s.size
    Seq(99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0).find(q => n * (1 - q / 100) >= 10) match {
      case Some(q) => (s"p$q", s(math.min(n - 1, math.ceil(q / 100 * n).toInt - 1)))
      case None => ("max", s.last)
    }
  }

  def classify(e: Throwable): (String, String) = {
    val msg = Option(e.getMessage).getOrElse("").linesIterator.nextOption().getOrElse("").take(300)
    val reason = e match {
      case _: WrongAnswer => "wrong answer"
      case _: IllegalStateException if msg.contains("stalled") => "stall"
      case _: IllegalStateException if msg.contains("did not finish") => "virtual timeout"
      case _: IllegalArgumentException if msg.contains("mismatch") => "wrong answer"
      case _ => s"exception ${e.getClass.getName}"
    }
    (reason, msg)
  }

  def runOp(op: Op): OpResult = {
    Trace.op = op.id
    val t0 = now()
    try {
      val recs = Trace.span("op")(op.run())
      val dt = secs(t0)
      Trace.span("check")(op.check(recs))
      OpResult(op, dt, recs.map(_.copy(rows = Vector.empty)), None)
    } catch { case NonFatal(e) => OpResult(op, secs(t0), Vector.empty, Some(classify(e))) }
  }

  def main(args: Array[String]): Unit = {
    val cfg = Config.parse(args.toList)
    val code = try { run(cfg); 0 } catch {
      case NonFatal(e) => System.err.println(s"perfbench: ${e.getClass.getName}: ${e.getMessage}"); e.printStackTrace(); 2
    }
    System.out.flush()
    sys.exit(code)
  }

  /** A workload with how long to warm it up before timing (seconds of ops)
    * and how many untraced timed passes to make at least, so that every run
    * has enough op samples for the same tail percentile. A traced run
    * alternates traced and untraced passes.
    */
  private final case class Setting(wl: Workload, warmupSeconds: Double, minPasses: Int)

  private def setting(cfg: Config): Setting = (cfg.workload, cfg.tiny) match {
    case ("paper", false) => Setting(new PaperWorkload(cfg.seed, 0.1), 2.0, 6)
    case ("paper", true) => Setting(new PaperWorkload(cfg.seed, 0.01), 0.0, 1)
    // An oracle check loads its input rows into DuckDB one JDBC batch row at a
    // time, about 0.4 ms a row on a 4-core x86 VM; at SF 0.0003 (2,355 rows)
    // a pass of all 15 checks takes about 15 s and fits in one run.
    case ("oracle", false) => Setting(new OracleWorkload(cfg.seed, 0.0003), 1.0, 1)
    case ("oracle", true) => Setting(new OracleWorkload(cfg.seed, 0.0002), 0.0, 1)
    case ("fuzz", false) => Setting(new FuzzWorkload(cfg.seed, 0.004, perQuery = 8), 2.0, 10)
    case ("fuzz", true) => Setting(new FuzzWorkload(cfg.seed, 0.001, perQuery = 2), 0.5, 1)
    case (w, _) => throw new IllegalArgumentException(s"unknown workload '$w' (paper, oracle, fuzz)")
  }

  def run(cfg: Config): Unit = {
    val Setting(wl, warmupSeconds, minPasses) = setting(cfg)
    val out = Paths.get(cfg.outDir).toAbsolutePath
    val nproc = Runtime.getRuntime.availableProcessors
    val master = cfg.master.getOrElse(s"local[${math.min(4, nproc)}]")
    Trace.enabled = cfg.trace

    // ---------------------------------------------------------------- set-up
    val t0 = now()
    val spark = Trace.span("spark.start") {
      SparkSession.builder
        .master(master)
        .appName("perfbench")
        .config("spark.default.parallelism", DefaultParallelism.toLong)
        .config("spark.sql.shuffle.partitions", DefaultParallelism.toLong)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", out.resolve("spark-local").toString)
        .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
        .getOrCreate()
    }
    val sparkStart = secs(t0)
    spark.sparkContext.setLogLevel("WARN")
    val env = Vector(
      s"nproc=$nproc", s"jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      f"max_heap_mb=${Runtime.getRuntime.maxMemory / 1048576.0}%.0f",
      s"spark=${spark.version} master=${spark.sparkContext.master}",
      s"spark.default.parallelism=${spark.sparkContext.defaultParallelism}",
      s"duckdb_threads=${duckdbThreads()}")
    println(s"perfbench workload=${cfg.workload} seed=${cfg.seed} seconds=${cfg.seconds} trace=${if (cfg.trace) 1 else 0}" +
      s"${if (cfg.tiny) " size=tiny" else ""}")
    println("env " + env.mkString(" "))

    val reps = ArrayBuffer[(Double, SetupStats)]()
    for (_ <- 1 to SetupReps) {
      val r0 = now()
      val st = wl.setup(spark)
      reps += ((secs(r0), st))
    }
    val setupS = sparkStart + median(reps.map(_._1).toSeq)
    val dataS = median(reps.map(_._2.dataSeconds).toSeq)
    val dataRows = reps.last._2.dataRows
    println(f"setup spark_start=${sparkStart}%.3fs reps=${reps.map(r => f"${r._1}%.3f").mkString(",")}s " +
      f"data_load_median=${dataS}%.3fs rows=$dataRows")
    Trace.enabled = false

    // -------------------------------------------------- checks outside timing
    val v0 = now()
    val validations = wl.validations(spark).map(runOp)
    println(f"validations ${validations.size} in ${secs(v0)}%.3fs")
    val ops = wl.ops
    wl.notes.foreach(println)

    // ---------------------------------------------------------------- passes
    val w0 = now()
    var warmed = 0
    while (secs(w0) < warmupSeconds) { runOp(ops(warmed % ops.size)); warmed += 1 }
    println(f"warm-up ${warmed} ops in ${secs(w0)}%.3fs")

    // start every run's timing from the same heap state, without set-up garbage
    System.gc()
    val passes = ArrayBuffer[PassResult]()
    val p0 = now()
    def needMore: Boolean =
      untracedPasses < minPasses || secs(p0) < cfg.seconds || (cfg.trace && passes.size < 2)
    def untracedPasses = passes.count(!_.traced)
    while (needMore) {
      val traced = cfg.trace && passes.size % 2 == 1
      Trace.pass = passes.size
      Trace.enabled = traced
      Tally.reset()
      val rs = ops.map(runOp)
      passes += PassResult(passes.size, traced, rs, Tally.reset())
    }
    Trace.enabled = false
    val measured = secs(p0)

    // ------------------------------------------------------ determinism check
    val first = passes.head
    val reference = first.results.map(r => r.op.id -> r.records.map(_.fingerprint)).toMap
    val failures = ArrayBuffer[(OpResult, String, String)]()
    for (p <- passes; r <- p.results) r.failure match {
      case Some((reason, msg)) => failures += ((r, reason, msg))
      case None if reference.get(r.op.id).exists(_ != r.records.map(_.fingerprint)) =>
        failures += ((r, "nondeterministic", "virtual result differs from the first pass"))
      case None => ()
    }
    validations.foreach(r => r.failure.foreach { case (reason, msg) => failures += ((r, reason, msg)) })
    val attempted = passes.map(_.results.size).sum + validations.size
    val failed = failures.size

    // ------------------------------------------------------------------ heap
    // let finalizers and cleaners release what the first collections found
    for (_ <- 1 to 2) { System.gc(); Thread.sleep(100) }
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    java.lang.ref.Reference.reachabilityFence(wl)

    // --------------------------------------------------------------- report
    val records = first.results.flatMap(_.records).sortBy(_.label)
    println(s"virtual fingerprint (${records.size} runs of the first timed pass, by label):")
    records.foreach(r => println("  vrun " + r.fingerprint))
    val digest = {
      val md = java.security.MessageDigest.getInstance("SHA-256")
      records.foreach(r => md.update((r.fingerprint + "\n").getBytes("UTF-8")))
      md.digest().map("%02x".format(_)).mkString.take(16)
    }
    println(s"virtual digest $digest")
    failures.groupBy(f => (f._1.op.id, f._2)).toVector.sortBy(_._1).foreach { case ((id, reason), fs) =>
      val (r, _, msg) = fs.head
      println(s"FAIL $id [$reason] x${fs.size}: $msg | ${r.op.schedule}")
    }

    val untraced = passes.filterNot(_.traced)
    val traced = passes.filter(_.traced)
    val samples = untraced.flatMap(_.results.map(_.seconds * 1000))
    val (tailName, tailMs) = tail(samples.toSeq)
    val timed = records.filter(_.deadline.isEmpty)
    val deadlineRuns = records.filter(_.deadline.isDefined)
    val endToEnd = Vector(
      ("setup_s", setupS, "s"),
      ("pass_s", median(untraced.map(_.seconds).toSeq), "s"),
      ("op_p50_ms", median(samples.toSeq), "ms"),
      ("op_tail_ms", tailMs, "ms"),
      ("heap_live_mb", heapMb, "MB"),
      ("virtual_s", timed.map(_.duration).sum, "vsec"),
      ("alloc_driver_s", records.map(_.allocDriverSeconds).sum, "driver-vsec"),
    )
    val errorRate = failed.toDouble / attempted
    val deadlineMiss = deadlineRuns.count(_.missedDeadline).toDouble
    println("pass seconds " + passes.map(p => f"${p.seconds}%.3f${if (p.traced) "t" else ""}").mkString(" "))
    println(f"passes ${passes.size} (${untraced.size} untraced, ${traced.size} traced) in ${measured}%.3fs; " +
      s"op samples ${samples.size}; tail percentile $tailName; attempted $attempted failed $failed")
    println(f"error_rate $errorRate%.6f deadline_miss ${deadlineMiss.toInt} of ${deadlineRuns.size} deadline runs")
    endToEnd.foreach { case (n, v, u) => println(f"metric $n%-16s $v%.6f $u") }

    val metrics: Vector[(String, Double, String)] =
      if (!cfg.trace) endToEnd
      else {
        val perLayer = Layers.metrics(traced.toVector, records, first.tally, sparkStart, dataS, dataRows,
          median(traced.map(_.seconds).toSeq) - median(untraced.map(_.seconds).toSeq), errorRate, deadlineMiss)
        perLayer.foreach { case (n, v, u) => println(f"layer $n%-28s $v%.6f $u") }
        val path = out.resolve("trace").resolve(s"${cfg.workload}-seed${cfg.seed}.jsonl")
        Trace.write(path)
        println(s"spans ${Trace.all.size} written to $path")
        perLayer
      }
    val correct = failures.forall(f => f._2 != "wrong answer" && f._2 != "nondeterministic")
    val json = metrics.map { case (n, v, u) => s""""$n": {"value": ${Json.num(v)}, "unit": "$u"}""" }
      .mkString("{", ", ", "}")
    println(s"""RESULT {"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": $json}""")
    spark.stop()
  }

  private def duckdbThreads(): String = {
    Class.forName("org.duckdb.DuckDBDriver")
    val c = java.sql.DriverManager.getConnection("jdbc:duckdb:")
    try {
      val rs = c.createStatement.executeQuery("SELECT current_setting('threads')")
      rs.next(); rs.getString(1)
    } finally c.close()
  }
}
