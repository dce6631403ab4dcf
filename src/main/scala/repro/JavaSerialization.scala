package repro

import java.io.{BufferedInputStream, BufferedOutputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream, OutputStream}
import java.nio.file.{Files, Path}

/** The one on-disk format of task profiles and parameter models: a single
  * Java-serialized object per file. It stands in for the paper's ONNX model
  * export (§4.3/§4.4): a compact artifact that loads once into the optimizer
  * process.
  */
private[repro] object JavaSerialization {

  def save(obj: Serializable, path: Path): Unit = {
    if (path.getParent != null) Files.createDirectories(path.getParent)
    write(obj, new BufferedOutputStream(Files.newOutputStream(path)))
  }

  def load[A](path: Path): A = {
    val ois = new ObjectInputStream(new BufferedInputStream(Files.newInputStream(path)))
    try ois.readObject().asInstanceOf[A] finally ois.close()
  }

  /** Bytes `save` writes for `obj`. */
  def size(obj: Serializable): Long = {
    val bos = new ByteArrayOutputStream()
    write(obj, bos)
    bos.size().toLong
  }

  private def write(obj: Serializable, out: OutputStream): Unit = {
    val oos = new ObjectOutputStream(out)
    try oos.writeObject(obj) finally oos.close()
  }
}
