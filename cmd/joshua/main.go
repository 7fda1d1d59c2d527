// Command joshua is every JOSHUA command in one binary: the head-node
// daemon, the compute node's mom daemon, and the PBS-compliant control
// commands of the paper. It answers to the name it is invoked by, so a
// link named jsub is jsub, and it also takes the command as its first
// argument:
//
//	go build -o /usr/local/bin/ ./cmd/joshua
//	for c in joshuad jmomd jsub jdel jhold jrls jsig jstat jnodes jadmin; do
//		ln -sf joshua /usr/local/bin/$c
//	done
//	jsub -config cluster.conf job.sh        # or: joshua jsub -config ...
//
// As the paper suggests, "alias qsub=jsub" (and qdel, qstat, ...) makes
// the control commands drop-in PBS replacements. Each command's flags
// are listed by "<command> -h". Every command reads the cluster
// configuration named by -config or JOSHUA_CONFIG (see
// internal/config); the clients listen for replies on -bind, else
// JOSHUA_BIND, else the configuration's client_bind.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"joshua/internal/cli"
	"joshua/internal/config"
)

// command is one entry of the command table: run parses its own
// arguments (those after the command name) into a flag set built by
// newFlags, and returns the error the command fails with.
type command struct {
	name, usage string
	run         func(c *command, args []string) error
}

var commands = []command{
	{"joshuad", "joshuad -config cluster.conf -id head0 [-mode static|bootstrap|join] [-data-dir dir] [-accounting file] [-shard n] [-shards n] [-v]", runJoshuad},
	{"jmomd", "jmomd -config cluster.conf -id compute0", runJmomd},
	{"jsub", "jsub -config cluster.conf [-N name] [-o owner] [-p priority] [-l nodes=N,ncpus=C,mem=512mb] [-w walltime] [-hold] [-t start-end | -t count] [script-file]", runJsub},
	{"jdel", "jdel -config cluster.conf job-id [job-id ...]", runJobs},
	{"jhold", "jhold -config cluster.conf job-id [job-id ...]", runJobs},
	{"jrls", "jrls -config cluster.conf job-id [job-id ...]", runJobs},
	{"jsig", "jsig -config cluster.conf [-s SIG] job-id [job-id ...]", runJobs},
	{"jstat", "jstat -config cluster.conf [-f] [-ordered] [job-id]", runJstat},
	{"jnodes", "jnodes -config cluster.conf [-o node | -c node]", runJnodes},
	{"jadmin", "jadmin -config cluster.conf", runJadmin},
}

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func main() {
	name, args := filepath.Base(os.Args[0]), os.Args[1:]
	cmd := lookup(name)
	if cmd == nil && len(args) > 0 {
		name, args = args[0], args[1:]
		cmd = lookup(name)
	}
	if cmd == nil {
		fmt.Fprintln(os.Stderr, "usage: joshua <command> [flags] [args], or a link named after the command")
		for _, c := range commands {
			fmt.Fprintf(os.Stderr, "  %s\n", c.usage)
		}
		os.Exit(2)
	}
	if err := cmd.run(cmd, args); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// flags is the part of the command line every command shares: its flag
// set, with -config (and for clients -bind) registered and -h printing
// the command's usage line. Bad flags exit 2 and -h exits 0, as with
// the flag package's defaults.
type flags struct {
	*flag.FlagSet
	config, bind string
}

func newFlags(c *command, bind bool) *flags {
	f := &flags{FlagSet: flag.NewFlagSet(c.name, flag.ExitOnError)}
	f.StringVar(&f.config, "config", "", "cluster configuration file")
	if bind {
		f.StringVar(&f.bind, "bind", "", "local TCP address to listen on for replies (overrides JOSHUA_BIND and client_bind)")
	}
	f.Usage = func() {
		fmt.Fprintf(f.Output(), "usage: %s\n", c.usage)
		f.PrintDefaults()
	}
	return f
}

// load parses the command line and loads the configuration it names.
func (f *flags) load(args []string) (*config.ClusterFile, error) {
	f.Parse(args) // ExitOnError: returns only on success
	return cli.LoadConfig(f.config)
}
