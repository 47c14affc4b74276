// Distributed: the real wire-level deployment on loopback. Starts the
// broker (TCP), file server (HTTP), and database (HTTP) as separate
// services, registers a worker over the network, and drives a student
// client through the §V submission sequence — the same component layout
// as the paper's AWS deployment, minus the ocean between machines.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/sim"
	"rai/internal/vfs"
)

func main() {
	ctx := context.Background()
	// --- services, each on its own loopback listener ---
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(ctx, b, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer brokerSrv.Close()
	fmt.Println("broker   :", brokerSrv.Addr())

	store := objstore.New(objstore.WithDefaultTTL(30 * 24 * time.Hour))
	fsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fsSrv := &http.Server{Handler: objstore.Handler(store, nil)}
	go func() { _ = fsSrv.Serve(fsLn) }()
	defer fsSrv.Close()
	fsURL := "http://" + fsLn.Addr().String()
	fmt.Println("fileserv :", fsURL)

	db := docstore.New()
	dbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	dbSrv := &http.Server{Handler: docstore.Handler(db, nil)}
	go func() { _ = dbSrv.Serve(dbLn) }()
	defer dbSrv.Close()
	dbURL := "http://" + dbLn.Addr().String()
	fmt.Println("database :", dbURL)

	// --- credentials (normally emailed by raiadmin keygen) ---
	reg := auth.NewRegistry()
	creds, err := reg.Issue("team-remote")
	if err != nil {
		log.Fatal(err)
	}

	// --- a worker connecting over the network ---
	workerQueue, err := brokerd.NewQueue(ctx, brokerSrv.Addr(), netx.Policy{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer workerQueue.Close()
	dataFS := buildData()
	worker := &core.Worker{
		Cfg:      core.WorkerConfig{ID: "remote-worker", MaxConcurrent: 2, RateLimit: time.Nanosecond},
		Queue:    workerQueue,
		Objects:  objstore.NewClient(fsURL),
		DB:       docstore.NewClient(dbURL),
		Auth:     reg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
	}
	go func() { _ = worker.Run(ctx) }()
	defer worker.Stop()
	fmt.Println("worker   : remote-worker subscribed to rai/tasks")

	// --- the student client, also over the network ---
	clientQueue, err := brokerd.NewQueue(ctx, brokerSrv.Addr(), netx.Policy{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer clientQueue.Close()
	client := &core.Client{
		Creds:   creds,
		Queue:   clientQueue,
		Objects: objstore.NewClient(fsURL),
		Stdout:  os.Stdout,
		LogWait: time.Minute,
	}
	m, src, err := sim.ProjectManifest(project.Spec{Impl: cnn.ImplParallel, Tuning: 1.0, Team: "team-remote"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== streaming job output over TCP ==")
	res, err := client.Submit(ctx, core.KindRun, nil, m, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njob %s: %s (accuracy %.4f)\n", res.JobID, res.Status, res.Accuracy)

	// The job record landed in the remote database.
	doc, err := docstore.NewClient(dbURL).FindOne(ctx, core.CollJobs, docstore.M{"job_id": res.JobID})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database has the job: worker=%v status=%v\n", doc["worker"], doc["status"])
}

// buildData assembles the course /data volume.
func buildData() *vfs.FS {
	dataFS := vfs.New()
	nw := cnn.NewNetwork(408)
	model, err := nw.SaveModel()
	if err != nil {
		log.Fatal(err)
	}
	_ = dataFS.WriteFile("/data/model.hdf5", model)
	ds, err := cnn.SynthesizeDataset(nw, 409, 10)
	if err != nil {
		log.Fatal(err)
	}
	blob, _ := ds.Encode()
	_ = dataFS.WriteFile("/data/test10.hdf5", blob)
	full, err := cnn.SynthesizeDataset(nw, 410, 20)
	if err != nil {
		log.Fatal(err)
	}
	blob, _ = full.Encode()
	_ = dataFS.WriteFile("/data/testfull.hdf5", blob)
	return dataFS
}
