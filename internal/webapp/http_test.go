package webapp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"joza"
)

func newHTTPApp(t *testing.T) *App {
	t.Helper()
	db := newDB(t)
	plain := NewApp(db, WithTransforms(TrimWhitespace, MagicQuotes))
	plain.Install(listPlugin())
	g, err := joza.New(joza.WithFragments(plain.FragmentTexts()))
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(db, WithTransforms(TrimWhitespace, MagicQuotes), WithChecker(g))
	app.Install(listPlugin(), &Plugin{
		Name: "echo-cookie",
		Handle: func(c *Ctx) (string, error) {
			return c.Cookie("session") + "|" + c.Header("X-Test"), nil
		},
	})
	return app
}

func TestHTTPHandlerBenign(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(newHTTPApp(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/list?id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Hello") {
		t.Errorf("status=%d body=%q", resp.StatusCode, body)
	}
}

func TestHTTPHandlerBlocksAttack(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(newHTTPApp(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/list?id=" + url.QueryEscape("-1 OR 1=1"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("terminate policy must answer a blank page, got %q", body)
	}
}

func TestHTTPHandlerCookieAndHeaderFlow(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(newHTTPApp(t)))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/echo-cookie", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: "session", Value: "abc123"})
	req.Header.Set("X-Test", "hv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "abc123") || !strings.Contains(string(body), "hv") {
		t.Errorf("body = %q", body)
	}
}

func TestHTTPHandlerPostForm(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(&Plugin{
		Name: "form",
		Handle: func(c *Ctx) (string, error) {
			return "got:" + c.Post("v"), nil
		},
	})
	srv := httptest.NewServer(HTTPHandler(app))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL+"/form", url.Values{"v": {"payload"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "got:payload" {
		t.Errorf("body = %q", body)
	}
}

func TestHTTPHandlerNotFound(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(newHTTPApp(t)))
	defer srv.Close()
	for _, path := range []string{"/", "/no-such-plugin"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d", path, resp.StatusCode)
		}
	}
}

func TestHTTPHandlerDBError(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(&Plugin{
		Name: "broken",
		Handle: func(c *Ctx) (string, error) {
			_, err := c.Query("SELECT * FROM missing")
			return "", err
		},
	})
	srv := httptest.NewServer(HTTPHandler(app))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/broken")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
