// Kvstore: run a replicated key-value store on the same generic
// replication engine (internal/rsm) that powers the JOSHUA head
// nodes — the demonstration that the symmetric active/active
// machinery is external to the service it replicates. Three replicas
// form a group, a client with head failover mutates the store, one
// replica crashes mid-stream, a fresh one joins by state transfer,
// and every survivor ends with identical state; the example exits
// non-zero if one does not.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

func member(i int) gcs.MemberID { return gcs.MemberID(fmt.Sprintf("kv%d", i)) }
func groupAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("kv%d/gcs", i))
}
func clientAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("kv%d/store", i))
}

func main() {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()

	// Every potential replica's group address, joiners included.
	peers := map[gcs.MemberID]transport.Addr{}
	for i := 0; i < 4; i++ {
		peers[member(i)] = groupAddr(i)
	}

	stores := map[int]*kvstore.Store{}
	reps := map[int]*rsm.Replica{}
	start := func(i int, initial []gcs.MemberID) {
		groupEP, err := net.Endpoint(groupAddr(i))
		if err != nil {
			log.Fatal(err)
		}
		clientEP, err := net.Endpoint(clientAddr(i))
		if err != nil {
			log.Fatal(err)
		}
		store := kvstore.NewStore()
		// The entire service-specific surface: the state machine, the
		// datagram classifier, and a wire-format rejection. The engine
		// neither knows nor cares that this is a key-value store
		// rather than a PBS batch system.
		rep, err := rsm.Start(rsm.Config{
			Self:             member(i),
			GroupEndpoint:    groupEP,
			ClientEndpoint:   clientEP,
			Peers:            peers,
			InitialMembers:   initial,
			Service:          store,
			Classify:         kvstore.Classifier(store),
			RejectNotPrimary: kvstore.RejectNotPrimary,
			TuneGCS: func(g *gcs.Config) {
				g.Heartbeat = 10 * time.Millisecond
				g.FailTimeout = 80 * time.Millisecond
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		stores[i], reps[i] = store, rep
		<-rep.Ready()
	}

	initial := []gcs.MemberID{member(0), member(1), member(2)}
	for i := 0; i < 3; i++ {
		start(i, initial)
	}
	defer func() {
		for _, rep := range reps {
			rep.Close()
		}
	}()
	v := reps[0].View()
	fmt.Printf("group formed: view %d, members %v, primary=%v\n\n", v.ID, v.Members, v.Primary)

	cliEP, err := net.Endpoint("user/kv")
	if err != nil {
		log.Fatal(err)
	}
	cli, err := kvstore.NewClient(cliEP, []transport.Addr{clientAddr(0), clientAddr(1), clientAddr(2)}, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// Mutations are intercepted, totally ordered, and applied on every
	// replica; exactly one replica answers (output mutual exclusion).
	if err := cli.Put("greeting", "hello"); err != nil {
		log.Fatal(err)
	}
	if _, err := cli.Append("log", "A"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("put greeting=hello, append log+=A")

	// One replica fail-stops; the survivors continue without
	// interruption and the client fails over transparently.
	net.CrashHost("kv2")
	reps[2].Close()
	delete(reps, 2)
	delete(stores, 2)
	fmt.Println("replica kv2 crashed")
	if _, err := cli.Append("log", "B"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("append log+=B served by the survivors")

	// A fresh replica joins the running group: the engine transfers
	// the service snapshot plus the request-deduplication table.
	start(3, nil)
	fmt.Println("replica kv3 joined with state transfer")
	if _, err := cli.Append("log", "C"); err != nil {
		log.Fatal(err)
	}

	// All live replicas converge to identical state; the example fails
	// unless they do.
	agree := false
	for deadline := time.Now().Add(5 * time.Second); !agree && time.Now().Before(deadline); {
		agree = true
		for _, s := range stores {
			if v, _ := s.Get("log"); v != "ABC" {
				agree = false
				time.Sleep(5 * time.Millisecond)
				break
			}
		}
	}
	fmt.Println()
	for i, s := range stores {
		fmt.Printf("replica kv%d state: %v\n", i, s.Dump())
	}
	if !agree {
		log.Fatal("replicas disagree: every live replica must hold log = ABC")
	}
}
