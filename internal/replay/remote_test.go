package replay

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/workload"
)

// TestDistributedReplay runs the full Fig 4 shape in-process: one
// controller and two client "machines" (the distributors) connected
// over real TCP, each running an engine of its own, replaying against a
// live server.
func TestDistributedReplay(t *testing.T) {
	_, serverAP, stop := testServer(t)
	defer stop()

	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 5 * time.Millisecond,
		Duration:     time.Second,
		Clients:      40,
		Seed:         3,
	})

	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlLn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const nClients = 2
	ctrlErr := make(chan error, 1)
	go func() {
		ctrlErr <- ServeController(ctx, ctrlLn, &sliceReader{events: tr.Events}, nClients)
	}()

	var mu sync.Mutex
	var totalSent, totalResp uint64
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := RunRemoteClient(ctx, ctrlLn.Addr().String(), Config{
				Server: serverAP, QueriersPerDistributor: 2,
			})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			mu.Lock()
			totalSent += rep.Sent
			totalResp += rep.Responses
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := <-ctrlErr; err != nil {
		t.Fatalf("controller: %v", err)
	}
	if int(totalSent) != len(tr.Events) {
		t.Errorf("total sent=%d want %d", totalSent, len(tr.Events))
	}
	if totalResp < totalSent*9/10 {
		t.Errorf("responses=%d of %d", totalResp, totalSent)
	}
}

func TestControllerRequiresDistributors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := ServeController(context.Background(), ln, &sliceReader{}, 0); err == nil {
		t.Error("zero distributors accepted")
	}
}

func TestRemoteClientBadHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("GARBAGE"))
		conn.Close()
	}()
	_, serverAP, stop := testServer(t)
	defer stop()
	if _, err := RunRemoteClient(context.Background(), ln.Addr().String(), Config{Server: serverAP}); err == nil {
		t.Error("bad handshake accepted")
	}
}
