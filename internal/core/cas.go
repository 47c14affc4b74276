package core

import (
	"context"
	"errors"
	"fmt"

	"rai/internal/cas"
	"rai/internal/objstore"
)

// The upload path (DESIGN.md §16). A project reaches the file server
// one way: the client hashes the tree into a chunk manifest and sends,
// in one request (Objects.PutManifest), the chunks its scan read that
// the stat index's last record did not name, then the manifest, which
// the store keeps as the job's upload object once it holds every chunk
// the manifest names. If it lacks some — the tree had no index record,
// or a chunk the record named has since been swept — it says which, and
// one more request sends them. The worker reads that object back under
// cas.MaxManifestBytes, validates it with cas.Decode and materializes
// /src (the download stage): chunks it verified for an earlier job come
// from its cas.Cache, and only the rest from one Objects.GetChunks
// stream, so a resubmission costs the worker what changed, as it costs
// the client. There is no second format and nothing to negotiate: an
// upload object that is not a manifest fails the job. `.tar.bz2`
// remains the format of the /build artifact only.

// TransferStats describes what one upload actually moved — the numbers
// behind the CLI's transfer summary line.
type TransferStats struct {
	// TotalBytes is the tree size a full (uncompressed) upload would
	// have carried.
	TotalBytes int64
	// SentBytes is what went over the wire: the manifest, once per
	// request, plus the chunk payloads sent.
	SentBytes int64
	// ChunksTotal/ChunksSent count distinct chunks in the tree and how
	// many had to be uploaded (the rest were already on the server).
	ChunksTotal int
	ChunksSent  int
}

// DedupRatio is the fraction of tree bytes the upload avoided sending
// (0 when the tree was fully transferred).
func (t *TransferStats) DedupRatio() float64 {
	if t.TotalBytes <= 0 || t.SentBytes >= t.TotalBytes {
		return 0
	}
	return float64(t.TotalBytes-t.SentBytes) / float64(t.TotalBytes)
}

// uploadProject moves the tree described by m to the file server under
// a fresh upload key for jobID. The store commits the manifest only
// once it holds every chunk the manifest names, so a worker that can
// read the manifest can fetch every chunk. Shared by Submit and
// OpenSession.
func (c *Client) uploadProject(ctx context.Context, jobID string, m *cas.Manifest, src cas.Source) (string, *TransferStats, error) {
	enc := m.Encode()
	key := fmt.Sprintf("%s/%s/project.manifest", c.Creds.UserName, jobID)
	stats := &TransferStats{TotalBytes: m.TotalBytes, ChunksTotal: len(m.ChunkSet())}
	send := src.Fresh()
	for requests := 1; ; requests++ {
		missing, err := c.Objects.PutManifest(ctx, BucketUploads, key, enc, UploadTTL, send, src)
		if err != nil {
			// The store refuses a chunk whose bytes do not hash to its name:
			// the file they were read from changed after it was hashed.
			var refused *objstore.RefusedChunkError
			if errors.As(err, &refused) {
				err = fmt.Errorf("%s changed while uploading: %w", fileOf(m, refused.Hash), err)
			}
			return "", nil, err
		}
		stats.SentBytes += int64(len(enc))
		stats.ChunksSent += len(send)
		for _, hash := range send {
			size, _ := src.Size(hash)
			stats.SentBytes += size
		}
		if len(missing) == 0 {
			break
		}
		if requests == 2 {
			return "", nil, fmt.Errorf("the file server still lacks %d chunks it was sent", len(missing))
		}
		send = missing
	}
	c.Telemetry.Counter("rai_client_delta_bytes_total", "bytes sent uploading projects").Add(float64(stats.SentBytes))
	c.Telemetry.Counter("rai_client_delta_saved_bytes_total", "upload bytes avoided by chunk reuse").
		Add(float64(max(0, stats.TotalBytes-stats.SentBytes)))
	return key, stats, nil
}

// fileOf returns the path of the first file in m holding the chunk.
func fileOf(m *cas.Manifest, hash string) string {
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			if c.Hash == hash {
				return f.Path
			}
		}
	}
	return "the project"
}
