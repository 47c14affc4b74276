package core

import (
	"context"
	"fmt"

	"rai/internal/cas"
)

// The upload path (DESIGN.md §16). A project reaches the file server
// one way: the client hashes the tree into a chunk manifest, asks the
// store which chunks it lacks (Objects.MissingChunks), streams only
// those (Objects.PutChunks), and stores the manifest itself as the
// job's upload object. The worker reads that object back under
// cas.MaxManifestBytes, validates it with cas.Decode and materializes
// /src from one Objects.GetChunks stream (Worker.fetchProject). There is no second format
// and nothing to negotiate: an upload object that is not a manifest
// fails the job. `.tar.bz2` remains the format of the /build artifact
// only.

// TransferStats describes what one upload actually moved — the numbers
// behind the CLI's transfer summary line.
type TransferStats struct {
	// TotalBytes is the tree size a full (uncompressed) upload would
	// have carried.
	TotalBytes int64
	// SentBytes is what went over the wire: manifest plus missing-chunk
	// payloads.
	SentBytes int64
	// ChunksTotal/ChunksSent count distinct chunks in the tree and how
	// many had to be uploaded (the rest were already on the server).
	ChunksTotal int
	ChunksSent  int
}

// DedupRatio is the fraction of tree bytes the negotiation avoided
// re-uploading (0 when the tree was fully transferred).
func (t *TransferStats) DedupRatio() float64 {
	if t.TotalBytes <= 0 || t.SentBytes >= t.TotalBytes {
		return 0
	}
	return float64(t.TotalBytes-t.SentBytes) / float64(t.TotalBytes)
}

// uploadProject moves the tree described by m to the file server under
// a fresh upload key for jobID: chunks the store lacks first, then the
// manifest, so a worker that can read the manifest can fetch every
// chunk it names. Shared by Submit and OpenSession.
func (c *Client) uploadProject(ctx context.Context, jobID string, m *cas.Manifest, src cas.Source) (string, *TransferStats, error) {
	missing, err := c.Objects.MissingChunks(ctx, m)
	if err != nil {
		return "", nil, fmt.Errorf("negotiating chunks: %w", err)
	}
	sent, err := c.Objects.PutChunks(ctx, missing, src)
	if err != nil {
		return "", nil, fmt.Errorf("uploading chunks: %w", err)
	}
	enc := m.Encode()
	key := fmt.Sprintf("%s/%s/project.manifest", c.Creds.UserName, jobID)
	if err := c.Objects.Put(ctx, BucketUploads, key, enc, UploadTTL); err != nil {
		return "", nil, fmt.Errorf("uploading manifest: %w", err)
	}
	stats := &TransferStats{
		TotalBytes:  m.TotalBytes,
		SentBytes:   sent + int64(len(enc)),
		ChunksTotal: len(m.ChunkSet()),
		ChunksSent:  len(missing),
	}
	c.Telemetry.Counter("rai_client_delta_bytes_total", "bytes sent uploading projects").Add(float64(stats.SentBytes))
	c.Telemetry.Counter("rai_client_delta_saved_bytes_total", "upload bytes avoided by chunk reuse").
		Add(float64(max(0, stats.TotalBytes-stats.SentBytes)))
	return key, stats, nil
}
