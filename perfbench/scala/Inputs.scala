package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, StandardCopyOption}
import java.security.MessageDigest
import java.util.SplittableRandom
import java.util.concurrent.Executors
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.baselines.SparkSqlRunner
import repro.core.Rows
import repro.queries.{Q, Tables, TpchData}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** One generation of the seeded inputs, with its phase times in seconds. */
final case class Generated(tables: Tables, digests: Map[String, Long],
                           datagenS: Double, ingestS: Double)

/** Seeded TPC-H-lite inputs. Every generated table gets its own seed drawn
  * from the run seed, so one seed fixes all inputs and no two tables share
  * a random stream.
  */
object Inputs {
  val Sf = 0.01

  private val seeded = Vector("lineitem", "orders", "customer", "part", "supplier", "partsupp")

  /** Per-table generator seeds, then the failure victim, all from `seed`. */
  final case class Seeds(tables: Map[String, Long], victim: Int)

  def seeds(seed: Long, workers: Int): Seeds = {
    val r = new SplittableRandom(seed)
    val ts = seeded.map(_ -> r.nextInt(1 << 30).toLong).toMap
    Seeds(ts, r.nextInt(workers))
  }

  private def frame(spark: SparkSession, name: String, s: Map[String, Long]): DataFrame =
    name match {
      case "lineitem" => SynthData.lineitem(spark, Sf, s(name))
      case "orders"   => SynthData.orders(spark, Sf, s(name))
      case "customer" => SynthData.customer(spark, Sf, s(name))
      case "part"     => SynthData.part(spark, Sf, s(name))
      case "supplier" => SynthData.supplier(spark, Sf, s(name))
      case "partsupp" => SynthData.partsupp(spark, Sf, s(name))
      case "nation"   => SynthData.nation(spark)
      case "region"   => SynthData.region(spark)
    }

  /** Build every table's generator and ingest it into engine rows. The
    * generators are lazy DataFrames: Spark executes them inside
    * `Rows.ingest`, so `datagenS` covers plan building only.
    */
  def generate(spark: SparkSession, s: Seeds, trace: Trace): Generated = {
    var genNs = 0L
    var ingNs = 0L
    val parts = TpchData.names.map { n =>
      val t0 = System.nanoTime
      val df = trace.span("setup.datagen")(frame(spark, n, s.tables))
      val t1 = System.nanoTime
      val (sch, rows) = trace.span("setup.ingest")(Rows.ingest(df))
      val t2 = System.nanoTime
      genNs += t1 - t0
      ingNs += t2 - t1
      (n, sch, rows)
    }
    val t = Tables(parts.map(p => p._1 -> p._2).toMap, parts.map(p => p._1 -> p._3).toMap)
    Generated(t, parts.map(p => p._1 -> Rows.multisetHash(p._3)).toMap, genNs / 1e9, ingNs / 1e9)
  }
}

/** The correctness reference: each query's result from SparkSQL (Catalyst)
  * over the same ingested rows, in canonical form. No `repro.core` code
  * computes it. Results are kept on disk under a key made of the scale
  * factor, the query text and the digests of the tables it reads, so a
  * result is reused only for identical inputs.
  */
object Reference {
  private def fmt(v: Any): String = v match {
    case d: Double               => f"$d%.6f"
    case f: Float                => f"${f.toDouble}%.6f"
    case b: java.math.BigDecimal => f"${b.doubleValue}%.6f"
    case null                    => "∅"
    case x                       => x.toString
  }

  /** Order-insensitive canonical form of a result multiset, as the repo's
    * test helper `TestUtil.canon` builds it.
    */
  def canon(rows: Iterable[Array[Any]]): Vector[String] =
    rows.iterator.map(_.map(fmt).mkString("|")).toVector.sorted

  private def key(q: Q, t: Tables, digests: Map[String, Long]): String = {
    val text = (Seq(Inputs.Sf.toString, q.id, q.sparkSql) ++
      q.tables.map(n => s"$n=${digests(n)}/${t.rows(n).length}")).mkString("\n")
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(UTF_8)).map(b => f"$b%02x").mkString
  }

  /** Reference results per query id; missing ones are computed in parallel
    * on `threads` threads.
    */
  def load(spark: SparkSession, t: Tables, digests: Map[String, Long], qs: Seq[Q],
           dir: Path, threads: Int): Map[String, Vector[String]] = {
    Files.createDirectories(dir)
    val files = qs.map(q => q -> dir.resolve(key(q, t, digests) + ".txt"))
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val fs = files.map { case (q, f) =>
        if (Files.exists(f)) Future.successful(q.id -> read(f))
        else Future {
          val rows = canon(SparkSqlRunner.run(spark, t, q).collect().toSeq.map(_.toSeq.toArray[Any]))
          write(f, rows)
          q.id -> rows
        }
      }
      Await.result(Future.sequence(fs), Duration.Inf).toMap
    } finally pool.shutdown()
  }

  private def read(f: Path): Vector[String] = {
    val lines = new String(Files.readAllBytes(f), UTF_8).split("\n", -1).toVector
    val n = lines.head.stripPrefix("rows=").toInt
    lines.slice(1, 1 + n)
  }

  private def write(f: Path, rows: Vector[String]): Unit = {
    val tmp = Files.createTempFile(f.getParent, "ref", ".tmp")
    Files.write(tmp, (s"rows=${rows.size}" +: rows).mkString("", "\n", "\n").getBytes(UTF_8))
    Files.move(tmp, f, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
  }
}
