package main

import (
	"bytes"
	"flag"
	"net/http"
	"slices"
	"strings"
	"testing"

	"cdmm/internal/serve"
)

// TestCommandTable walks the command table. Every declared flag parses
// given its own default value and -h succeeds without running the
// command. The generated usage names every command and, under the
// command or under a shared group that lists it, every flag the command
// declares; the shared -j and observability groups list exactly the
// commands whose FlagSets declare j and events.
func TestCommandTable(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)

	// Split the usage into sections: a command's line or a shared
	// group's title, each followed by its flag lines.
	type section struct {
		cmds  []string
		flags map[string]bool
	}
	var sections []*section
	cmdSections, groups := map[string]*section{}, map[string]*section{}
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "      -"):
			if len(sections) == 0 {
				t.Fatalf("flag line before any section: %q", line)
			}
			sections[len(sections)-1].flags[strings.Fields(line)[0][1:]] = true
		case strings.HasPrefix(line, "  ") && line[2] != ' ':
			name := strings.Fields(line)[0]
			s := &section{cmds: []string{name}, flags: map[string]bool{}}
			sections = append(sections, s)
			cmdSections[name] = s
		case strings.HasSuffix(line, "):"):
			title, list, _ := strings.Cut(strings.TrimSuffix(line, "):"), " (")
			s := &section{cmds: strings.Split(list, ", "), flags: map[string]bool{}}
			sections = append(sections, s)
			groups[title] = s
		}
	}

	var jCmds, obsCmds []string
	for i := range commands {
		c := &commands[i]
		fs, _ := c.flagSet()
		if fs.Lookup("j") != nil {
			jCmds = append(jCmds, c.name)
		}
		if fs.Lookup("events") != nil {
			obsCmds = append(obsCmds, c.name)
		}
		if cmdSections[c.name] == nil {
			t.Errorf("usage does not name %s", c.name)
		}
		fs.VisitAll(func(f *flag.Flag) {
			again, _ := c.flagSet()
			if err := again.Parse([]string{"-" + f.Name + "=" + f.DefValue}); err != nil {
				t.Errorf("%s -%s=%s: %v", c.name, f.Name, f.DefValue, err)
			}
			listed := false
			for _, s := range sections {
				listed = listed || s.flags[f.Name] && slices.Contains(s.cmds, c.name)
			}
			if !listed {
				t.Errorf("usage does not list %s's flag -%s", c.name, f.Name)
			}
		})
		if err := runCommand(c.name, []string{"-h"}); err != nil {
			t.Errorf("%s -h: %v", c.name, err)
		}
	}
	for title, want := range map[string][]string{"parallelism flag": jCmds, "observability flags": obsCmds} {
		g := groups[title]
		if g == nil {
			t.Errorf("usage has no %q group", title)
			continue
		}
		if !slices.Equal(g.cmds, want) {
			t.Errorf("%s lists %v, want the commands declaring them: %v", title, g.cmds, want)
		}
	}
}

// TestServeNestedCommandErrorShutsDown: a nested command that fails,
// whether unknown or rejecting a flag, makes serve return its error, and
// only after shutting the telemetry server down.
func TestServeNestedCommandErrorShutsDown(t *testing.T) {
	defer func() { serveTestHook = nil }()
	for _, tc := range []struct {
		nested []string
		want   string
	}{
		{[]string{"nosuch"}, `unknown command "nosuch"`},
		{[]string{"kernel", "-tenants", "10", "-j", "-4"}, `invalid value "-4" for flag -j`},
	} {
		var url string
		serveTestHook = func(srv *serve.Server) { url = srv.URL() }
		err := runCommand("serve", append([]string{"-addr", "127.0.0.1:0", "--"}, tc.nested...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve -- %v: err = %v, want one containing %q", tc.nested, err, tc.want)
		}
		if url == "" {
			t.Fatalf("serve -- %v: serveTestHook did not run", tc.nested)
		}
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			t.Errorf("serve -- %v: telemetry server still answers after serve returned", tc.nested)
		}
		if served != nil {
			t.Errorf("serve -- %v: telemetry still attached after serve returned", tc.nested)
		}
	}
}
