package dfs

import (
	"fmt"
	"io"
	"sort"
)

// This file implements the libhdfs-style client interface of §II-A: the
// paper's applications access HDFS either through the C API declared in
// hdfs.h (hdfsOpenFile / hdfsRead / hdfsWrite / hdfsSeek) or through an I/O
// translation layer that maps POSIX/MPI-IO calls onto it. Client, FileReader
// and FileWriter mirror that API over the simulated file system, including
// the read path's replica choice (local preferred, random otherwise) and
// per-replica byte accounting.
//
// Chunk payloads are materialized lazily: files created through Create /
// CreateChunks (size-only, used by the large-scale experiments) serve a
// deterministic synthetic byte pattern, while files written through a
// FileWriter serve back exactly the bytes written. Either way reads are
// reproducible, which the round-trip tests rely on.

// MiB is the number of bytes per MB used throughout the byte-level API.
const MiB = 1 << 20

// bytesOf converts a chunk size in MB to bytes.
func bytesOf(sizeMB float64) int64 { return int64(sizeMB * MiB) }

// synthByte is the deterministic content generator for size-only files:
// a cheap mix of the chunk ID and offset (splitmix64-style constants).
func synthByte(id ChunkID, off int64) byte {
	x := uint64(id)*0x9E3779B97F4A7C15 + uint64(off)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 27
	return byte(x)
}

// chunkReadAt copies chunk payload bytes into p starting at offset off
// within the chunk. It returns the number of bytes copied.
func (fs *FileSystem) chunkReadAt(c *Chunk, p []byte, off int64) int {
	size := bytesOf(c.SizeMB)
	if off >= size {
		return 0
	}
	n := int(size - off)
	if n > len(p) {
		n = len(p)
	}
	if c.data != nil {
		copy(p[:n], c.data[off:off+int64(n)])
		return n
	}
	for i := 0; i < n; i++ {
		p[i] = synthByte(c.ID, off+int64(i))
	}
	return n
}

// Client is a libhdfs-style handle bound to the cluster node the calling
// process runs on (-1 for an external client with no co-located replicas,
// like the paper's off-cluster writers).
type Client struct {
	fs   *FileSystem
	node int
}

// Client returns a client for a process running on the given node. Pass a
// negative node for an external client.
func (fs *FileSystem) Client(node int) *Client {
	if node >= fs.view.NumNodes() {
		panic(fmt.Sprintf("dfs: client node %d outside cluster of %d", node, fs.view.NumNodes()))
	}
	return &Client{fs: fs, node: node}
}

// Node reports where the client runs (-1 when external).
func (c *Client) Node() int { return c.node }

// ReadStats accumulates the replica accounting of a FileReader — the raw
// material of the paper's locality measurements.
type ReadStats struct {
	LocalBytes  int64
	RemoteBytes int64
	// ServedBytes[node] counts payload bytes served by each replica holder.
	ServedBytes map[int]int64
}

// LocalFraction is the fraction of payload bytes read from the client's
// own node.
func (s *ReadStats) LocalFraction() float64 {
	total := s.LocalBytes + s.RemoteBytes
	if total == 0 {
		return 0
	}
	return float64(s.LocalBytes) / float64(total)
}

// Open opens a file for reading, as hdfsOpenFile(path, O_RDONLY) does.
func (c *Client) Open(path string) (*FileReader, error) {
	f, err := c.fs.Stat(path)
	if err != nil {
		return nil, err
	}
	return &FileReader{
		client: c,
		file:   f,
		stats:  ReadStats{ServedBytes: make(map[int]int64)},
	}, nil
}

// FileReader is a sequential/positional reader over a file, mirroring
// hdfsRead / hdfsPread.
type FileReader struct {
	client *Client
	file   *File
	pos    int64
	closed bool
	stats  ReadStats
	// replicaOf pins the replica chosen for each chunk so that sequential
	// reads of one chunk stay on one serving node, as an HDFS block read
	// does.
	replicaOf map[ChunkID]int
	// offsets[i] is the byte offset of chunk i within the file, with one
	// extra trailing element holding the file size. Built lazily on the
	// first locate — chunk sizes are immutable once the file is sealed — so
	// positional lookups are a binary search instead of a linear rescan.
	offsets []int64
}

// Size reports the file length in bytes.
func (r *FileReader) Size() int64 { return bytesOf(r.file.SizeMB) }

// Stats returns the accumulated replica accounting.
func (r *FileReader) Stats() ReadStats { return r.stats }

// Read implements io.Reader (hdfsRead).
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.pos)
	r.pos += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt (hdfsPread): positional read without moving
// the cursor.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("dfs: read on closed reader for %q", r.file.Name)
	}
	if off < 0 {
		return 0, fmt.Errorf("dfs: negative read offset %d", off)
	}
	total := 0
	for total < len(p) {
		pos := off + int64(total)
		c, chunkOff := r.locate(pos)
		if c == nil {
			if total == 0 {
				return 0, io.EOF
			}
			return total, io.EOF
		}
		n := r.client.fs.chunkReadAt(c, p[total:], chunkOff)
		if n == 0 {
			break
		}
		r.account(c, int64(n))
		total += n
	}
	return total, nil
}

// locate maps a byte offset to (chunk, offset-within-chunk). The first call
// builds the cumulative-offset table; every call after that binary-searches
// it, so a whole-file sequential read costs O(chunks·log chunks) in lookups
// rather than the O(chunks²) of rescanning the chunk list per ReadAt.
func (r *FileReader) locate(pos int64) (*Chunk, int64) {
	if pos < 0 {
		return nil, 0
	}
	if r.offsets == nil {
		r.offsets = make([]int64, len(r.file.Chunks)+1)
		var base int64
		for i, id := range r.file.Chunks {
			r.offsets[i] = base
			base += bytesOf(r.client.fs.Chunk(id).SizeMB)
		}
		r.offsets[len(r.file.Chunks)] = base
	}
	if pos >= r.offsets[len(r.offsets)-1] {
		return nil, 0
	}
	// First chunk whose end lies beyond pos.
	i := sort.Search(len(r.file.Chunks), func(i int) bool { return pos < r.offsets[i+1] })
	return r.client.fs.Chunk(r.file.Chunks[i]), pos - r.offsets[i]
}

// account records which replica served n bytes of chunk c, pinning the
// chunk's replica on first touch with the HDFS policy (local preferred,
// random fallback).
func (r *FileReader) account(c *Chunk, n int64) {
	if r.replicaOf == nil {
		r.replicaOf = make(map[ChunkID]int)
	}
	node, ok := r.replicaOf[c.ID]
	if !ok {
		node, _ = r.client.fs.PickReplica(c.ID, r.client.node)
		r.replicaOf[c.ID] = node
	}
	r.stats.ServedBytes[node] += n
	if node == r.client.node {
		r.stats.LocalBytes += n
	} else {
		r.stats.RemoteBytes += n
	}
}

// Close releases the reader, as hdfsCloseFile does.
func (r *FileReader) Close() error {
	if r.closed {
		return fmt.Errorf("dfs: double close of %q", r.file.Name)
	}
	r.closed = true
	return nil
}

// Create opens a new file for writing, as hdfsOpenFile(path, O_WRONLY).
// The data is buffered into chunks of the configured chunk size; replicas
// are placed when each chunk fills (or on Close), exactly like the HDFS
// write pipeline allocating blocks as the stream grows.
//
// The path is reserved at open, mirroring the namenode's lease: a second
// writer racing for the same path fails here with ErrExists instead of
// buffering all its data only to collide at Close. The reservation is
// released when the writer closes (successfully or not) or aborts.
func (c *Client) Create(path string) (*FileWriter, error) {
	if err := c.fs.nameFree(path); err != nil {
		return nil, err
	}
	c.fs.reserved[path] = true
	return &FileWriter{client: c, path: path}, nil
}

// FileWriter is a streaming writer, mirroring hdfsWrite.
type FileWriter struct {
	client *Client
	path   string
	buf    []byte
	chunks [][]byte
	closed bool
}

// Write implements io.Writer.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write on closed writer for %q", w.path)
	}
	chunkBytes := int(bytesOf(w.client.fs.cfg.ChunkSizeMB))
	w.buf = append(w.buf, p...)
	for len(w.buf) >= chunkBytes {
		chunk := make([]byte, chunkBytes)
		copy(chunk, w.buf[:chunkBytes])
		w.chunks = append(w.chunks, chunk)
		w.buf = w.buf[chunkBytes:]
	}
	return len(p), nil
}

// Close seals the file: the final partial chunk is flushed and the file is
// registered with the namenode with replica placement per chunk. The path
// reservation taken at Create is released whether or not the close
// succeeds, so a failed close does not wedge the path forever.
func (w *FileWriter) Close() error {
	if w.closed {
		return fmt.Errorf("dfs: double close of writer for %q", w.path)
	}
	w.closed = true
	delete(w.client.fs.reserved, w.path)
	if len(w.buf) > 0 {
		w.chunks = append(w.chunks, append([]byte(nil), w.buf...))
		w.buf = nil
	}
	if len(w.chunks) == 0 {
		return fmt.Errorf("dfs: writer for %q closed with no data", w.path)
	}
	sizes := make([]float64, len(w.chunks))
	for i, c := range w.chunks {
		sizes[i] = float64(len(c)) / MiB
	}
	f, err := w.client.fs.CreateChunks(w.path, sizes)
	if err != nil {
		return err
	}
	for i, id := range f.Chunks {
		w.client.fs.chunks[int(id)].data = w.chunks[i]
	}
	return nil
}

// Abort discards the buffered data and releases the path reservation
// without registering the file — the client dying before completing the
// write pipeline. Aborting an already-closed writer is a no-op.
func (w *FileWriter) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.buf, w.chunks = nil, nil
	delete(w.client.fs.reserved, w.path)
}
