"""A fit's chain files: the one definition of their lines (a header, then
one line per kept draw of repr floats joined by ","), and the helper
process `fit` writes and hashes them in while its chains sample. Run as
`python -I -S chainfiles.py OUTDIR CHAINS PATTERN`, it loads only the
standard library. Its stdin holds the header line, then frames: a native
uint64 row count n and n rows of native float64 values of each chain in
turn. A frame of 0 rows ends the stream: the helper renames its part files
into place, PATTERN.format(k) for k < CHAINS, and prints their sha256s. A
stream that ends otherwise exits 1, an I/O error 4, after removing the
part files and the output directory if the helper made it."""

import contextlib
import hashlib
import os
import struct
import sys

FRAME = struct.Struct("=Q")  # rows in the frame
STOP_SECONDS = 10  # a stopped helper's time to clean up before it is killed


def format_rows(rows) -> bytes:
    """A chain file's lines of `rows`, each a sequence of floats."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


def _paths(outdir, chains: int, pattern: str) -> list:
    return [os.path.join(outdir, pattern.format(k)) for k in range(chains)]


class ChainWriter:
    """The helper writing a fit's `chains` chain files into `outdir`: send it
    the header (`begin`), then frames as `run_chains`'s sink; `digests()` ends
    the stream. A helper that fails is an OSError; leaving `with` stops it."""

    def __init__(self, outdir, chains: int, pattern: str):
        import subprocess

        self.outdir, self.chains, self.pattern, self.framed = outdir, chains, pattern, False
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", __file__, outdir, str(chains),
                                      pattern], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        with contextlib.suppress(ImportError, AttributeError, OSError):  # F_SETPIPE_SZ: Linux
            import fcntl
            fcntl.fcntl(self.proc.stdin, fcntl.F_SETPIPE_SZ, 1 << 20)  # sampling runs on ahead

    def begin(self, header: str) -> None:
        self._send(header.encode() + b"\n")

    def __call__(self, block) -> None:
        """Send `block`, a C-ordered (chains, rows, width) float64 array."""
        self.framed = True
        self._send(FRAME.pack(block.shape[1]), block)

    def _send(self, *parts) -> None:
        try:
            for part in parts:
                self.proc.stdin.write(part)
            self.proc.stdin.flush()
        except OSError:
            raise OSError(f"the chain file writer stopped with exit code {self._stop()}") from None

    def digests(self) -> dict:
        self._send(FRAME.pack(0))
        lines = self.proc.communicate()[0].decode().split()
        if self.proc.returncode or len(lines) != self.chains:
            raise OSError(f"the chain file writer exited with code {self._stop()} "
                          f"after {len(lines)} of {self.chains} chain files")
        return {self.pattern.format(k): digest for k, digest in enumerate(lines)}

    def _stop(self) -> int:
        """End the stream, reap the helper and remove its part files; its exit code."""
        import subprocess

        with contextlib.suppress(OSError):  # a dead helper leaves the frame nowhere to go
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_SECONDS)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        for path in _paths(self.outdir, self.chains, self.pattern) if self.framed else ():
            with contextlib.suppress(FileNotFoundError):  # part files come at frame 1
                os.remove(path + ".part")
        return self.proc.returncode

    def __enter__(self) -> "ChainWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:  # digests() did not end the stream
            self._stop()


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise EOFError
    return data


def serve(outdir: str, chains: int, pattern: str, stream, out) -> int:
    """The helper's work, from the header on `stream` to the digests on
    `out`; its exit code. It makes `outdir` and the part files at frame 1."""
    header = stream.readline()
    width = header.count(b",") + 1
    files, made = [], False  # (part file, sha256) per chain
    try:
        while rows := FRAME.unpack(_read(stream, FRAME.size))[0]:
            if not files:
                made = not os.path.isdir(outdir)
                os.makedirs(outdir, exist_ok=True)
                for path in _paths(outdir, chains, pattern):
                    files.append((open(path + ".part", "wb"), hashlib.sha256(header)))
                    files[-1][0].write(header)
            values = memoryview(_read(stream, 8 * rows * width * chains)).cast("d").tolist()
            split = [values[i:i + width] for i in range(0, len(values), width)]
            for k, (fh, digest) in enumerate(files):
                lines = format_rows(split[k * rows:(k + 1) * rows])
                digest.update(lines)
                fh.write(lines)
        for fh, _ in files:
            fh.close()
            os.replace(fh.name, fh.name.removesuffix(".part"))
        out.write("".join(digest.hexdigest() + "\n" for _, digest in files))
        return 0
    except EOFError:
        code = 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 4
    for fh, _ in files:
        fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(fh.name)
    if made:
        with contextlib.suppress(OSError):  # one left holding files is the caller's to remove
            os.rmdir(outdir)
    return code


if __name__ == "__main__":
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches `fit` too, which ends the stream
    sys.exit(serve(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.stdin.buffer, sys.stdout))
