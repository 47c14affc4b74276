package grading

import (
	"context"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"

	"rai/internal/archivex"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/vfs"
)

// Downloader is the instructor tool from §VI "Downloading and Running
// Students' Submissions": it queries the database for final submissions,
// downloads the corresponding /build archives from the file server, and
// un-archives them, optionally deleting files not needed for grading.
type Downloader struct {
	DB      docstore.Store
	Objects core.Objects
	// Cleanup removes intermediate build products and datasets after
	// unpacking ("the option to delete unneeded files, such as
	// intermediate files generated by make and the given dataset").
	Cleanup bool
}

// FinalSubmission locates one team's graded artifact.
type FinalSubmission struct {
	Team        string
	JobID       string
	BuildBucket string
	BuildKey    string
}

// ListFinalSubmissions queries the database for each team's recorded
// final submission (the ranking row points at the job that produced it).
func (d *Downloader) ListFinalSubmissions(ctx context.Context) ([]FinalSubmission, error) {
	rows, err := d.DB.Find(ctx, core.CollRankings, docstore.M{}, docstore.FindOpts{Sort: []string{"team"}})
	if err != nil {
		return nil, err
	}
	var out []FinalSubmission
	for _, r := range rows {
		team, _ := r["team"].(string)
		jobID, _ := r["job_id"].(string)
		job, err := d.DB.FindOne(ctx, core.CollJobs, docstore.M{"job_id": jobID})
		if err != nil {
			return nil, fmt.Errorf("grading: ranking row for %s points at unknown job %s", team, jobID)
		}
		bucket, _ := job["build_bucket"].(string)
		key, _ := job["build_key"].(string)
		if bucket == "" || key == "" {
			return nil, fmt.Errorf("grading: job %s (team %s) has no build artifact", jobID, team)
		}
		out = append(out, FinalSubmission{Team: team, JobID: jobID, BuildBucket: bucket, BuildKey: key})
	}
	return out, nil
}

// DownloadAll fetches and unpacks every final submission under
// dstRoot/<team>/ in dst, returning the teams processed (sorted).
func (d *Downloader) DownloadAll(ctx context.Context, dst *vfs.FS, dstRoot string) ([]string, error) {
	subs, err := d.ListFinalSubmissions(ctx)
	if err != nil {
		return nil, err
	}
	var teams []string
	for _, s := range subs {
		blob, err := d.Objects.Get(ctx, s.BuildBucket, s.BuildKey)
		if err != nil {
			return teams, fmt.Errorf("grading: downloading %s: %w", s.Team, err)
		}
		dir := path.Join(dstRoot, s.Team)
		if err := archivex.UnpackVFS(blob, dst, dir, archivex.Limits{}); err != nil {
			return teams, fmt.Errorf("grading: unpacking %s: %w", s.Team, err)
		}
		if d.Cleanup {
			if err := cleanupTree(dst, dir); err != nil {
				return teams, err
			}
		}
		teams = append(teams, s.Team)
	}
	sort.Strings(teams)
	return teams, nil
}

// cleanupTree removes grading-irrelevant files: build intermediates and
// course datasets.
func cleanupTree(tree *vfs.FS, root string) error {
	var doomed []string
	err := fs.WalkDir(tree.IOFS(root), ".", func(rel string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		base := path.Base(rel)
		switch {
		case base == "Makefile",
			strings.HasSuffix(base, ".nvprof"),
			strings.HasSuffix(base, ".hdf5"),
			strings.HasSuffix(base, ".o"):
			doomed = append(doomed, path.Join(root, rel))
		case base == "ece408": // the compiled binary
			doomed = append(doomed, path.Join(root, rel))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range doomed {
		if err := tree.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}
