package dfs

import "fmt"

// Mutations only this package's tests drive.

// Delete removes a file from the namespace and releases its replicas from
// every node, like hdfs dfs -rm. Its chunk IDs become tombstones: Chunk()
// panics on them, so stale references fail fast rather than silently
// reading freed data.
func (fs *FileSystem) Delete(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for _, id := range f.Chunks {
		c := fs.chunks[int(id)]
		for len(c.Replicas) > 0 {
			fs.detach(c, c.Replicas[len(c.Replicas)-1])
		}
		c.deleted = true
	}
	delete(fs.files, name)
	fs.order = without(fs.order, name)
	fs.bumpEpoch(f.Chunks...)
	return nil
}
