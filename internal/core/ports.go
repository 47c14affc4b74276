package core

import (
	"context"
	"io"
	"time"

	"rai/internal/broker"
	"rai/internal/cas"
	"rai/internal/objstore"
	"rai/internal/telemetry"
)

// ShipTelemetry adapts a queue into the exporter's ShipFunc: every
// span/event batch is published on the rai.telemetry route, where the
// collector persists it. Used by all daemons (and the CLI) so the
// observability pipeline rides the same fabric as job traffic.
func ShipTelemetry(q broker.Queue) telemetry.ShipFunc {
	return func(ctx context.Context, b *telemetry.Batch) error {
		_, err := q.Publish(ctx, TelemetryTopic, b.Encode())
		return err
	}
}

// Objects is the file-server port, satisfied by both the HTTP client
// (objstore.Client) and the in-process engine (objstore.Store).
// Projects go up as chunks plus a manifest (MissingChunks, PutChunks,
// then Put of the manifest — cas.go) and come down as the manifest plus
// one GetChunks. GetReader streams an object so the caller can bound
// what it reads; its int64 is the content length (-1 when the server
// does not say).
type Objects interface {
	Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error
	Get(ctx context.Context, bucket, key string) ([]byte, error)
	GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error)
	List(ctx context.Context, bucket, prefix string) ([]objstore.ObjectInfo, error)
	Delete(ctx context.Context, bucket, key string) error
	// MissingChunks returns the subset of the manifest's chunks absent
	// from the store, refreshing the TTL of those present.
	MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error)
	// PutChunks uploads the named chunks from src and returns the
	// payload bytes transferred.
	PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error)
	// GetChunks reads the named chunks in one transfer, handing each the
	// payload of every one in the order asked (data is only valid during
	// the call). A chunk the store lacks fails the call before the first
	// payload. A transfer cut part-way may start over from the first hash,
	// so each must tolerate seeing a chunk again. It is the only way to
	// read chunks in bulk (cas.Fetcher, which cas.Materialize consumes).
	GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error
}

var _ Objects = (*objstore.Client)(nil)
var _ Objects = (*objstore.Store)(nil)
