// Package cli holds the plumbing shared by the JOSHUA commands (the
// one cmd/joshua binary, answering as joshuad, jmomd, jsub, jdel,
// jhold, jrls, jsig, jstat, jnodes and jadmin): loading the cluster
// configuration and building TCP-backed clients and endpoints from it.
package cli

import (
	"fmt"
	"os"
	"time"

	"joshua/internal/config"
	"joshua/internal/joshua"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// LoadConfig loads the cluster configuration named by -config (or the
// JOSHUA_CONFIG environment variable as a fallback).
func LoadConfig(path string) (*config.ClusterFile, error) {
	if path == "" {
		path = os.Getenv("JOSHUA_CONFIG")
	}
	if path == "" {
		return nil, fmt.Errorf("no configuration: pass -config or set JOSHUA_CONFIG")
	}
	return config.LoadCluster(path)
}

// BindAddr resolves the local TCP address a control command should
// listen on for replies: the -bind flag value if given, else the
// JOSHUA_BIND environment variable, else the configuration's
// client_bind key, else an ephemeral loopback port (which only works
// when the head nodes run on the same machine).
func BindAddr(explicit string, conf *config.ClusterFile) string {
	if explicit != "" {
		return explicit
	}
	if env := os.Getenv("JOSHUA_BIND"); env != "" {
		return env
	}
	if conf != nil && conf.ClientBind != "" {
		return conf.ClientBind
	}
	return "127.0.0.1:0"
}

// Listen opens a command's reply endpoint on BindAddr(bind, conf)
// under a process-unique logical address; servers reply over the
// inbound connection. A process holding several endpoints at once
// tells them apart by tag.
func Listen(conf *config.ClusterFile, bind, tag string) (*tcpnet.Endpoint, error) {
	host, _ := os.Hostname()
	if host == "" {
		host = "client"
	}
	logical := transport.Addr(fmt.Sprintf("cli-%s-%d%s/client", host, os.Getpid(), tag))
	return tcpnet.Listen(logical, BindAddr(bind, conf), conf.Resolver())
}

// NewClient builds a control-command client talking TCP to the
// cluster's head nodes, listening on a Listen endpoint; bind
// (normally the -bind flag) overrides JOSHUA_BIND and the
// configuration when set.
func NewClient(conf *config.ClusterFile, timeout time.Duration, bind string) (*joshua.Client, error) {
	ep, err := Listen(conf, bind, "")
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ccfg := joshua.ClientConfig{
		Endpoint:       ep,
		AttemptTimeout: timeout,
	}
	if conf.Shards > 1 {
		// Sharded deployment: the client owns all routing (job-ID
		// hash to the owning group, scatter-gather for whole-cluster
		// queries), so the commands stay unchanged.
		ccfg.Shards = conf.ShardHeadClientAddrs()
		ccfg.ShardNodes = conf.ShardNodeNames()
	} else {
		ccfg.Heads = conf.HeadClientAddrs()
	}
	cli, err := joshua.NewClient(ccfg)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return cli, nil
}
