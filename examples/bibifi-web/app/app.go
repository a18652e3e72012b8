// Package app is a slice of the BIBIFI contest platform served over
// net/http with the policy-enforcing ORM — the substrate for the paper's
// §5.4 macro-benchmark. It exposes the two endpoints the paper measures:
//
//	GET /announcements  — contest announcements and the schedule
//	GET /profile        — the logged-in user's own profile
//
// Authentication is a demo-grade bearer token: `X-User-Id: <id>` selects
// the principal; requests without it run as Unauthenticated, exactly the
// middleware pattern described in §3.3.
package app

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"scooter"
)

// Spec is the application schema and policies.
const Spec = `
AddStaticPrincipal(Admin);
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated, Admin],
  delete: _ -> [Admin],
  ident: String { read: public, write: none },
  email: String { read: x -> [x, Admin], write: x -> [x] },
  school: String { read: x -> [x, Admin], write: x -> [x] },
  admin: Bool { read: public, write: _ -> [Admin] },
});
CreateModel(Contest {
  create: _ -> [Admin],
  delete: _ -> [Admin],
  title: String { read: public, write: _ -> [Admin] },
  buildStart: DateTime { read: public, write: _ -> [Admin] },
  buildEnd: DateTime { read: public, write: _ -> [Admin] },
});
CreateModel(Announcement {
  create: _ -> [Admin],
  delete: _ -> [Admin],
  contest: Id(Contest) { read: public, write: none },
  title: String { read: public, write: _ -> [Admin] },
  markdown: String { read: public, write: _ -> [Admin] },
  timestamp: DateTime { read: public, write: none },
});
`

// Migration002 re-states the contact-field policies. The restated
// policies equal the originals, so the migration is behaviourally a no-op
// — but Sidecar cannot know that without proving it, which makes the
// migration a realistic verification workload: four strictness proofs run
// on every fresh boot (email and school carry identical policies, so the
// later proofs hit the verdict cache).
const Migration002 = `
User::UpdateFieldPolicy(email, {
  read: x -> [x, Admin],
  write: x -> [x]
});
User::UpdateFieldPolicy(school, {
  read: x -> [x, Admin],
  write: x -> [x]
});
`

// Server is the BIBIFI web application. Exactly one of W (primary) and F
// (read-only replica) is set.
type Server struct {
	W   *scooter.Workspace
	F   *scooter.FollowerWorkspace
	mux *http.ServeMux
}

// princ returns a policy-checked handle for p against whichever workspace
// backs this server. On a replica the handle is read-only, but read
// policies are enforced exactly as on the primary.
func (s *Server) princ(p scooter.Principal) *scooter.Princ {
	if s.F != nil {
		return s.F.AsPrinc(p)
	}
	return s.W.AsPrinc(p)
}

var announcementsTmpl = template.Must(template.New("announcements").Parse(`<!doctype html>
<title>BIBIFI — Announcements</title>
<h1>Announcements</h1>
{{range .Announcements}}<article><h2>{{.Title}}</h2><p>{{.Body}}</p></article>
{{end}}
<h1>Schedule</h1>
<ul>{{range .Contests}}<li>{{.Title}}: {{.Start}} – {{.End}}</li>{{end}}</ul>
`))

var profileTmpl = template.Must(template.New("profile").Parse(`<!doctype html>
<title>BIBIFI — Profile</title>
<h1>{{.Ident}}</h1>
<dl><dt>Email</dt><dd>{{.Email}}</dd><dt>School</dt><dd>{{.School}}</dd></dl>
`))

// New builds the application on a fresh in-memory workspace, applying the
// schema migration.
func New() (*Server, error) { return Open("", scooter.DurabilityOptions{}) }

// Open builds the application. With a data directory, the workspace is
// backed by a write-ahead log there: previously durable state is recovered
// (including a migration interrupted by a crash, which resumes), and every
// later write is logged before the HTTP response acknowledges it. An empty
// dataDir gives the in-memory workspace New provides.
func Open(dataDir string, opts scooter.DurabilityOptions) (*Server, error) {
	var w *scooter.Workspace
	var err error
	if dataDir == "" {
		w = scooter.NewWorkspace()
	} else if w, err = scooter.OpenDurable(dataDir, opts); err != nil {
		return nil, err
	}
	// The named migrations replay the schema over recovered data: a fresh
	// directory applies them, a recovered one just advances the spec.
	if _, err := w.MigrateNamed("001_init", Spec); err != nil {
		return nil, err
	}
	if _, err := w.MigrateNamed("002_policies", Migration002); err != nil {
		return nil, err
	}
	s := &Server{W: w, mux: http.NewServeMux()}
	s.routes()
	return s, nil
}

// OpenFollower builds the application as a read-only replica: the data
// directory mirrors the primary's write-ahead log (streamed from
// primaryAddr, the primary's -serve-replication address), and both the
// data and the schema's policies replicate with it. The replica serves
// the same read endpoints; it needs no migration of its own.
func OpenFollower(dataDir, primaryAddr string) (*Server, error) {
	fw, err := scooter.OpenFollower(dataDir, primaryAddr, scooter.FollowerOptions{})
	if err != nil {
		return nil, err
	}
	s := &Server{F: fw, mux: http.NewServeMux()}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("/announcements", s.handleAnnouncements)
	s.mux.HandleFunc("/profile", s.handleProfile)
	s.mux.Handle("/metrics", s.MetricsHandler())
}

// MetricsHandler serves whichever workspace backs this server in the
// Prometheus text format.
func (s *Server) MetricsHandler() http.Handler {
	if s.F != nil {
		return s.F.MetricsHandler()
	}
	return s.W.MetricsHandler()
}

// Close releases whichever workspace backs the server. Idempotent.
func (s *Server) Close() error {
	if s.F != nil {
		return s.F.Close()
	}
	return s.W.Close()
}

// Seed inserts n users, one contest, and a set of announcements, and
// returns the created user ids. On a recovered database that is already
// seeded it inserts nothing and returns the existing user ids, so a
// restarted server keeps its data.
func (s *Server) Seed(users, announcements int) []scooter.ID {
	if existing, err := s.W.AsPrinc(scooter.Static("Admin")).Find("User"); err == nil && len(existing) > 0 {
		ids := make([]scooter.ID, 0, len(existing))
		for _, u := range existing {
			ids = append(ids, u.ID)
		}
		return ids
	}
	contest := s.W.InsertRaw("Contest", scooter.Doc{
		"title": "Fall Contest", "buildStart": int64(1_600_000_000), "buildEnd": int64(1_600_600_000),
	})
	for i := 0; i < announcements; i++ {
		s.W.InsertRaw("Announcement", scooter.Doc{
			"contest":   contest,
			"title":     fmt.Sprintf("Announcement %d", i),
			"markdown":  "The build round opens soon.",
			"timestamp": int64(1_600_000_000 + i),
		})
	}
	ids := make([]scooter.ID, users)
	for i := range ids {
		ids[i] = s.W.InsertRaw("User", scooter.Doc{
			"ident": fmt.Sprintf("user%d", i), "email": fmt.Sprintf("user%d@example.com", i),
			"school": "UCSD", "admin": false,
		})
	}
	return ids
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(rw http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(rw, r) }

// principal selects the request principal from the X-User-Id header.
func (s *Server) principal(r *http.Request) scooter.Principal {
	if v := r.Header.Get("X-User-Id"); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			return scooter.Instance("User", scooter.ID(id))
		}
	}
	return scooter.Static("Unauthenticated")
}

func (s *Server) handleAnnouncements(rw http.ResponseWriter, r *http.Request) {
	pr := s.princ(s.principal(r))
	anns, err := pr.Find("Announcement")
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	contests, err := pr.Find("Contest")
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	type annView struct{ Title, Body string }
	type contestView struct {
		Title      string
		Start, End int64
	}
	data := struct {
		Announcements []annView
		Contests      []contestView
	}{}
	for _, a := range anns {
		title, _ := a.Get("title")
		body, _ := a.Get("markdown")
		data.Announcements = append(data.Announcements, annView{Title: str(title), Body: str(body)})
	}
	for _, c := range contests {
		title, _ := c.Get("title")
		start, _ := c.Get("buildStart")
		end, _ := c.Get("buildEnd")
		data.Contests = append(data.Contests, contestView{Title: str(title), Start: i64(start), End: i64(end)})
	}
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := announcementsTmpl.Execute(rw, data); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleProfile(rw http.ResponseWriter, r *http.Request) {
	p := s.principal(r)
	if p.Static != "" {
		// Unauthenticated users have no profile: 403, the production-mode
		// response the paper suggests for policy failures (§3.3).
		http.Error(rw, "Forbidden", http.StatusForbidden)
		return
	}
	pr := s.princ(p)
	obj, err := pr.FindByID("User", p.ID)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	if obj == nil {
		http.Error(rw, "Not Found", http.StatusNotFound)
		return
	}
	ident, _ := obj.Get("ident")
	email, _ := obj.Get("email")
	school, _ := obj.Get("school")
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	err = profileTmpl.Execute(rw, struct{ Ident, Email, School string }{
		Ident: str(ident), Email: str(email), School: str(school),
	})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
	}
}

func str(v scooter.Value) string {
	s, _ := v.(string)
	return s
}

func i64(v scooter.Value) int64 {
	n, _ := v.(int64)
	return n
}
